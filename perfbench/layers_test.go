package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageLayersComplete walks the simulator's packages and fails on any
// package the layer table does not map, so a new package cannot silently
// fall into the unattributed CPU share.
func TestPackageLayersComplete(t *testing.T) {
	seen := 0
	for _, root := range []string{"internal", "scenario"} {
		err := filepath.WalkDir(filepath.Join("..", root), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !hasGoSource(t, path) {
				return nil
			}
			rel, err := filepath.Rel("..", path)
			if err != nil {
				return err
			}
			pkg := "ndp/" + filepath.ToSlash(rel)
			seen++
			if _, ok := packageLayers[pkg]; !ok {
				t.Errorf("package %s has no layer in packageLayers", pkg)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if seen < 10 {
		t.Fatalf("found only %d packages; is the test running from perfbench/?", seen)
	}
}

func hasGoSource(t *testing.T, dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"ndp/internal/sim.(*EventList).popMin":                "sim",
		"ndp/internal/harness.(*NDPNet).StartFlow.func1":      "harness",
		"ndp/internal/mptcp.(*Sender).OnEvent":                "tcp",
		"ndp/scenario.RunWithStats":                           "scenario",
		"ndp/internal/harness.RunJobs[go.shape.*uint8].func1": "harness",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "runtime",
		"runtime/internal/atomic.Load":                        "runtime",
		"sort.insertionSort_func":                             "",
		"ndp/perfbench.(*simRun).startRPCFlow":                "",
		"ndp/internal/lint.Run":                               "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUShares(t *testing.T) {
	shares, un, n := cpuShares([]leafSample{
		{"ndp/internal/sim.(*EventList).popMin", 60},
		{"ndp/internal/fabric.(*Port).Enqueue", 20},
		{"runtime.memmove", 10},
		{"sort.Sort", 10},
	})
	if n != 4 || shares["sim"] != 0.6 || shares["fabric"] != 0.2 || shares["runtime"] != 0.1 || un != 0.1 {
		t.Fatalf("shares %v unattributed %v n %d", shares, un, n)
	}
}
