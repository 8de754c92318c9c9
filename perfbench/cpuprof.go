package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run profiles its timed spans with runtime/pprof and splits
// flat CPU time by package, which separates work that cannot be timed
// from outside Machine.Step. Inside the machine package it further
// splits PEBS feeding, the migrator and the auditor from the rest (the
// contention solver and step bookkeeping).

// cpuBuckets are the report's buckets, in report order.
var cpuBuckets = []string{
	"machine.feed", "machine.migrate", "machine.audit", "machine.solver",
	"core", "pebs", "memmode", "vm", "sim", "mem", "gups", "dma", "fault",
	"runtime", "probe", "other",
}

// cpuBucket maps a fully qualified Go function name to its bucket.
func cpuBucket(fn string) string {
	const internal = "github.com/tieredmem/hemem/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg, sym, _ := strings.Cut(rest, ".")
		if pkg == "machine" {
			switch {
			case strings.Contains(sym, "feedSamples"):
				return "machine.feed"
			case strings.Contains(sym, "(*Migrator)"):
				return "machine.migrate"
			case strings.Contains(sym, "udit"):
				return "machine.audit"
			}
			return "machine.solver"
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") {
		return "runtime"
	}
	if strings.HasPrefix(fn, "main.(*probe)") {
		return "probe"
	}
	return "other"
}

// flatCPU parses a gzipped pprof CPU profile and returns flat CPU
// seconds per bucket: each sample's time goes to the innermost function
// of its leaf location.
func flatCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU value is the sample type measured in nanoseconds.
	vi := -1
	for i, st := range p.sampleUnits {
		if st == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no nanoseconds sample type")
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi >= len(s.values) {
			continue
		}
		fn := p.funcName[p.locFunc[s.locs[0]]]
		out[cpuBucket(fn)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// profile is the subset of the pprof protobuf flatCPU needs.
type profile struct {
	sampleUnits []string
	samples     []sample
	locFunc     map[uint64]uint64 // location id → innermost function id
	funcName    map[uint64]string // function id → name
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the perftools.profiles.Profile message fields
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	var unitIdx []uint64
	funcNameIdx := map[uint64]uint64{}
	err := fields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 1: // ValueType{type=1, unit=2}
			return fields(msg, func(n int, v uint64, _ []byte) error {
				if n == 2 {
					unitIdx = append(unitIdx, v)
				}
				return nil
			})
		case 2: // Sample{location_id=1, value=2}
			var s sample
			err := fields(msg, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return varints(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location{id=1, line=4{function_id=1}}
			var id, fn uint64
			first := true
			err := fields(msg, func(n int, v uint64, sub []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && first:
					first = false
					return fields(sub, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5: // Function{id=1, name=2}
			var id, name uint64
			err := fields(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, u := range unitIdx {
		p.sampleUnits = append(p.sampleUnits, str(u))
	}
	for id, ni := range funcNameIdx {
		p.funcName[id] = str(ni)
	}
	return p, nil
}

// fields walks one protobuf message, calling f with each field number
// and either its varint value or its length-delimited payload.
func fields(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field, which arrives either as one
// value (packed == nil) or as a packed run.
func varints(v uint64, packed []byte, add func(uint64)) error {
	if packed == nil {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
