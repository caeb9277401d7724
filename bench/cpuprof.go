package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuLayers are the profile buckets, in print order.
var cpuLayers = []string{"seq", "selection", "balance", "comm", "machine", "parsel", "serve", "parselclient", "snapshot", "json", "nethttp", "gc", "other"}

// pkgLayers maps a Go package path to its profile bucket. bufio, os and
// internal/poll are deliberately absent: their samples belong to the
// caller (a socket write to nethttp, a snapshot file write to snapshot).
var pkgLayers = map[string]string{
	"parsel/internal/seq":       "seq",
	"parsel/internal/selection": "selection",
	"parsel/internal/balance":   "balance",
	"parsel/internal/comm":      "comm",
	"parsel/internal/machine":   "machine",
	"parsel":                    "parsel",
	"parsel/internal/serve":     "serve",
	"parsel/parselclient":       "parselclient",
	"parsel/internal/snapshot":  "snapshot",
	"encoding/json":             "json",
	"net/http":                  "nethttp",
	"net":                       "nethttp",
}

// gcPrefixes name the runtime functions that do garbage collection work,
// whether in the background workers or as an allocating goroutine's
// assist.
var gcPrefixes = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject", "runtime.sweepone", "runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)"}

// funcLayer is the bucket of one function, "" when it belongs to none.
func funcLayer(fn string) string {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	// The package path ends at the first '.' after the last '/' of the
	// name with its type parameters and receiver stripped.
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i]
	}
	pkg := s
	if dot := strings.IndexByte(s[strings.LastIndexByte(s, '/')+1:], '.'); dot >= 0 {
		pkg = s[:strings.LastIndexByte(s, '/')+1+dot]
	}
	return pkgLayers[pkg]
}

// chargeProfile decodes a gzipped pprof CPU profile and adds each
// sample to counts under the bucket of the innermost frame that belongs
// to one, or "other".
func chargeProfile(data []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]int64{}    // function id → name string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = protoVarints(s.locs, v, b)
				case 2:
					if vals := protoVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		layer := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					if l := funcLayer(strs[i]); l != "" {
						layer = l
						break stack
					}
				}
			}
		}
		counts[layer] += s.count
	}
	return nil
}

var errProto = errors.New("malformed profile")

// protoFields walks the fields of one protobuf message, handing fn each
// field's number with its varint value (wire type 0) or its bytes (wire
// type 2); fixed-width fields are skipped.
func protoFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// protoVarints appends a repeated varint field's values: one value, or
// a packed run of them.
func protoVarints(dst []uint64, v uint64, b []byte) []uint64 {
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
