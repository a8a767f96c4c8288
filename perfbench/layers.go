package main

import "strings"

// packageLayers maps every package of the simulator to the layer its CPU
// samples count toward. Layers are named after the module that dominates
// them; the baseline transports share the tcp layer, the switch service
// models and host artifacts sit with core, and measurement helpers with
// scenario. "none" marks packages that never run inside a simulation.
// TestPackageLayersComplete fails when a package appears that is missing
// here.
var packageLayers = map[string]string{
	"ndp":                    "scenario",
	"ndp/scenario":           "scenario",
	"ndp/internal/stats":     "scenario",
	"ndp/internal/sim":       "sim",
	"ndp/internal/fabric":    "fabric",
	"ndp/internal/core":      "core",
	"ndp/internal/cp":        "core",
	"ndp/internal/p4":        "core",
	"ndp/internal/hostmodel": "core",
	"ndp/internal/tcp":       "tcp",
	"ndp/internal/mptcp":     "tcp",
	"ndp/internal/dctcp":     "tcp",
	"ndp/internal/dcqcn":     "tcp",
	"ndp/internal/phost":     "tcp",
	"ndp/internal/topo":      "topo",
	"ndp/internal/harness":   "harness",
	"ndp/internal/workload":  "workload",
	"ndp/internal/simd":      "simd",
	"ndp/internal/lint":      "none",
}

// profileLayers are the layers whose CPU share the traced run reports as
// <layer>.cpu_frac.
var profileLayers = []string{"sim", "fabric", "core", "tcp", "topo", "runtime"}

// packageOf returns the import path of a symbol name as pprof prints it,
// e.g. "ndp/internal/sim.(*EventList).popMin" -> "ndp/internal/sim".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf returns the layer a leaf function's CPU time belongs to, or ""
// when no layer owns it (the benchmark's own code, the standard library
// outside the runtime).
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if l := packageLayers[pkg]; l != "none" {
		return l
	}
	return ""
}

// cpuShares buckets CPU samples by the leaf frame's layer. It returns each
// layer's share of the total, the unattributed share, and the sample count.
func cpuShares(samples []leafSample) (shares map[string]float64, unattributed float64, n int) {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.nanos
		by[layerOf(s.fn)] += s.nanos
	}
	shares = map[string]float64{}
	if total == 0 {
		return shares, 0, len(samples)
	}
	for l, ns := range by {
		if l != "" {
			shares[l] = float64(ns) / float64(total)
		}
	}
	return shares, float64(by[""]) / float64(total), len(samples)
}
