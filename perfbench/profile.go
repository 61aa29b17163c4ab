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

// shareModules are the repository modules whose host time the traced run
// reports, each as the share of CPU-profile samples whose innermost
// repro/internal frame belongs to it.
var shareModules = []string{"des", "ibsim", "memreg", "rpcrdma", "oncrpc", "xdr", "nfs3", "vfs", "core", "telemetry"}

// moduleOf maps a Go function name to the repro/internal module it belongs
// to, or "" for a frame outside the repository's internal packages.
func moduleOf(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute returns the module a sample's stack (innermost frame first) is
// charged to: its innermost repro/internal frame, so runtime frames below
// it (channel handoff, allocation) count toward the module that called
// them. A stack with no such frame is "gc" (collector and scheduler work
// with no repository caller).
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "gc"
}

// hostShares decodes a pprof CPU profile and returns each module's share
// of samples; modules outside shareModules fold into "other".
func hostShares(profile []byte) (map[string]float64, int, error) {
	stacks, weights, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{"gc": true}
	for _, m := range shareModules {
		known[m] = true
	}
	count := map[string]int64{}
	var total int64
	for i, st := range stacks {
		m := attribute(st)
		if !known[m] {
			m = "other"
		}
		count[m] += weights[i]
		total += weights[i]
	}
	out := map[string]float64{}
	for _, m := range append(append([]string(nil), shareModules...), "gc", "other") {
		out[m] = ratio(float64(count[m]), float64(total))
	}
	return out, len(stacks), nil
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof writes
// and returns every sample's stack as function names, innermost first,
// with the sample's first value (the sample count) as its weight. It
// decodes just the fields it needs: Profile.sample (2), Profile.location
// (4), Profile.function (5) and Profile.string_table (6).
func decodeProfile(data []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := packed(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := packed(w, v, b)
					if len(vals) > 0 && s.value == 0 {
						s.value = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]int64, 0, len(samples))
	for _, s := range samples {
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFn[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.value)
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with the
// field number, wire type, varint value (wire type 0) or payload (wire
// type 2). Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
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
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, payload); err != nil {
				return err
			}
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

// packed returns the varints of a repeated scalar field, packed (wire type
// 2) or not (one varint per occurrence).
func packed(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
