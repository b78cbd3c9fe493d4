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

// The traced run attributes CPU time to packages from a runtime/pprof CPU
// profile. The standard library writes profiles but has no reader, so this
// file decodes the few fields of the profile.proto message it needs:
// samples (location ids and values), locations (their inlined lines) and
// functions (their names).

// selfSamples decodes a gzipped CPU profile and returns the sample count
// charged to each leaf function — the innermost inlined frame of each
// sample's first location, which is where the CPU was executing.
func selfSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strs      []string
		decodeErr error
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			decodeErr = errors.Join(decodeErr, fields(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					locs = appendVarints(locs, wire, v, b)
				case 2:
					vals = appendVarints(vals, wire, v, b)
				}
			}))
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			decodeErr = errors.Join(decodeErr, fields(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line: the first one is the innermost inlined frame
					if seenLine {
						return
					}
					seenLine = true
					decodeErr = errors.Join(decodeErr, fields(b, func(num, wire int, v uint64, b []byte) {
						if num == 1 {
							fn = v
						}
					}))
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.count
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) and bytes (wire type 2).
func fields(buf []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			fn(num, wire, v, nil)
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			fn(num, wire, 0, buf[n:n+int(l)])
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// packageOf returns the import path of a Go symbol name such as
// "repro/internal/interp.(*cvm).exec" or "runtime.mallocgc": everything up
// to the first dot after the last slash.
func packageOf(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	dot := strings.IndexByte(symbol[slash+1:], '.')
	if dot < 0 {
		return symbol
	}
	return symbol[:slash+1+dot]
}

// cpuBucket maps a symbol to the cpu.* bucket its self time is charged to:
// a repro/internal package by its leaf name, a few standard-library layers
// (encoding/json, net/http, syscalls, the Go runtime) by name, and
// everything else to "other".
func cpuBucket(symbol string) string {
	pkg := packageOf(symbol)
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		leaf := strings.TrimPrefix(pkg, "repro/internal/")
		for _, p := range cpuPackages {
			if p == leaf {
				return p
			}
		}
		return "other"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/") || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
