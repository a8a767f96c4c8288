package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func burn(until time.Time) int {
	x := 0
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestParseCPUProfile decodes a real runtime/pprof CPU profile and finds
// the function that burned the CPU among the leaf frames.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	var burnNs, total int64
	for _, s := range samples {
		total += s.nanos
		if strings.HasSuffix(s.fn, ".burn") {
			burnNs += s.nanos
		}
		if s.nanos <= 0 || s.fn == "" {
			t.Fatalf("malformed sample %+v", s)
		}
	}
	if burnNs < total/4 {
		t.Fatalf("burn has %d of %d ns; leaf attribution looks wrong", burnNs, total)
	}
	if packageOf("ndp/perfbench.burn") != "ndp/perfbench" {
		t.Fatal("packageOf")
	}
}
