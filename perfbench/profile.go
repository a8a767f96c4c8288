package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file decodes just enough of the gzipped profile.proto that
// runtime/pprof writes to attribute CPU samples to their leaf function:
// samples (location ids, values), locations (first line's function id),
// functions (name) and the string table. The format is small and stable,
// and the benchmark imports nothing outside the standard library.

// leafSample is one CPU sample: the innermost function and its CPU time.
type leafSample struct {
	fn    string
	nanos int64
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	profPeriod      = 12
	sampleLocation  = 1
	sampleValue     = 2
	locationID      = 1
	locationLine    = 4
	lineFunction    = 1
	functionID      = 1
	functionName    = 2
)

// parseCPUProfile returns the leaf function and CPU nanoseconds of every
// sample in a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]leafSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> leaf function id
		fnName  = map[uint64]int64{}  // function id -> string index
		strs    []string
		period  int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					s.locs = appendPacked(s.locs, v, b, func(x uint64) uint64 { return x })
				case sampleValue:
					s.vals = appendPacked(s.vals, v, b, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == locationID:
					id = v
				case num == locationLine && !seenLine:
					// The first line is the innermost inlined frame.
					seenLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		case profPeriod:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]leafSample, 0, len(samples))
	for _, s := range samples {
		if len(s.locs) == 0 {
			continue
		}
		var nanos int64
		switch {
		case len(s.vals) >= 2: // [samples/count, cpu/nanoseconds]
			nanos = s.vals[1]
		case len(s.vals) == 1:
			nanos = s.vals[0] * period
		}
		name := ""
		if idx, ok := fnName[locFn[s.locs[0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out = append(out, leafSample{fn: name, nanos: nanos})
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that arrived either as one
// varint (v, b == nil) or packed into a length-delimited run (b).
func appendPacked[T any](dst []T, v uint64, b []byte, conv func(uint64) T) []T {
	if b == nil {
		return append(dst, conv(v))
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, conv(x))
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (b != nil).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes one base-128 varint, returning its byte length (0 when
// truncated).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
