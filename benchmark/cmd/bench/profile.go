package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuShares buckets the flat samples of a runtime/pprof CPU profile by
// the layer of the leaf function's package. The shares sum to 1: this
// is the host-clock attribution that adds up to the end-to-end figure.
//
// The profile is the gzipped protobuf of pprof's profile.proto; only
// the four message types needed to name a sample's leaf function are
// decoded here, so the benchmark needs no tool outside the standard
// library.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	var (
		stringTable []string
		funcName    = map[uint64]uint64{} // function id -> name index
		locFunc     = map[uint64]uint64{} // location id -> leaf function id
		leafCount   = map[uint64]int64{}  // leaf location id -> samples
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1 (leaf first), value = 2 (samples, ns)
			var leaf uint64
			var count int64
			seenLoc, seenVal := false, false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					if !seenLoc {
						leaf, seenLoc = firstVarint(v, b), true
					}
				case 2:
					if !seenVal {
						count, seenVal = int64(firstVarint(v, b)), true
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if seenLoc {
				leafCount[leaf] += count
			}
		case 4: // Location: id = 1, line = 4 (innermost inlined function first)
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if !seenLine {
						seenLine = true
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			stringTable = append(stringTable, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	counts := map[string]int64{}
	var total int64
	for loc, n := range leafCount {
		name := ""
		if idx := funcName[locFunc[loc]]; idx < uint64(len(stringTable)) {
			name = stringTable[idx]
		}
		counts[layerOf(name)] += n
		total += n
	}
	if total == 0 {
		return nil, errors.New("no samples")
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = float64(counts[l]) / float64(total)
	}
	return shares, nil
}

// cpuLayers are the buckets of the CPU profile: this repository's
// packages, the Go runtime, and everything else (the benchmark's own
// handlers, load, testbed, the standard library).
var cpuLayers = []string{"sim", "wire", "fabric", "cap", "core", "proc", "route", "services",
	"device", "fs", "app", "runtime", "other"}

// layerOf maps a function name such as
// "fractos/internal/sim.(*Kernel).loop" to its bucket.
func layerOf(fn string) string {
	const internal = "fractos/internal/"
	if strings.HasPrefix(fn, internal) {
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	// Assembly helpers of the runtime (memeqbody, aeshashbody, gogo)
	// carry no package at all.
	if !strings.Contains(fn, ".") || strings.HasPrefix(fn, "runtime") || strings.HasPrefix(fn, "internal/") {
		return "runtime"
	}
	return "other"
}

// fields walks the fields of one protobuf message, calling fn with the
// field number and either its varint value or its length-delimited
// bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return errors.New("unsupported protobuf wire type")
		}
	}
	return nil
}

// firstVarint returns the first element of a repeated integer field,
// which arrives either unpacked (one varint) or packed (bytes).
func firstVarint(v uint64, packed []byte) uint64 {
	if packed == nil {
		return v
	}
	first, _ := binary.Uvarint(packed)
	return first
}
