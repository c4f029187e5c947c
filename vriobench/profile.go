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

// selfShares reads a runtime/pprof CPU profile and returns, for every
// package, the share of samples whose innermost frame is in it (its self
// time), keyed by the last element of the import path for this module's
// internal packages and "runtime" for the Go runtime. It decodes only the
// protobuf fields it needs, so the benchmark depends on nothing outside the
// standard library.
func selfShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		leafFn  = map[uint64]uint64{} // location id -> innermost function id
		samples = map[uint64]int64{}  // leaf location id -> sample count
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var locs []uint64
			var count int64
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, packed or not
					locs = appendVarints(locs, v, b)
				case 2: // value: [samples, cpu ns]; keep the count
					if first {
						vals := appendVarints(nil, v, b)
						if len(vals) > 0 {
							count = int64(vals[0])
							first = false
						}
					}
				}
				return nil
			})
			if err == nil && len(locs) > 0 {
				samples[locs[0]] += count
			}
			return err
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if !gotLine {
						gotLine = true
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFn[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var total int64
	byPkg := map[string]int64{}
	for loc, n := range samples {
		total += n
		idx := funcs[leafFn[loc]]
		if idx < uint64(len(strs)) {
			byPkg[packageOf(strs[idx])] += n
		}
	}
	shares := map[string]float64{}
	if total > 0 {
		for p, n := range byPkg {
			shares[p] = float64(n) / float64(total)
		}
	}
	return shares, total, nil
}

// packageOf maps a symbol such as "vrio/internal/sim.(*Engine).RunUntil"
// to "sim", "runtime.mallocgc" or "internal/runtime/maps.(*Map).Get" to
// "runtime", and anything else to its full import path.
func packageOf(sym string) string {
	// Compiler-generated equality and hash functions belong to the package
	// of their type; assembly routines without a package are the runtime's.
	for _, gen := range []string{"type:.eq.", "type:.hash."} {
		sym = strings.TrimPrefix(sym, gen)
	}
	if !strings.Contains(sym, ".") {
		return "runtime"
	}
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	path := sym
	if dot >= 0 {
		path = sym[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(path, "vrio/internal/"):
		return strings.TrimPrefix(path, "vrio/internal/")
	case path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	}
	return path
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; pprof profiles use none that the caller reads.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field: v when it arrived
// unpacked (b nil), else every varint packed in b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
