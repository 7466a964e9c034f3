package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU-profile sample: its function names, innermost
// first (inlined frames expanded), and how many times it was seen.
type stackSample struct {
	frames []string
	count  int64
}

// repoModule is the module path of the program under test.
const repoModule = "goodenough"

// layers are the repository packages reported as <layer>.self_frac, plus
// bench (this benchmark's own frames: load generator, sinks, wrappers),
// net (no repo frame, some non-runtime frame: net/http, syscalls), runtime
// (no repo frame, only runtime frames: GC workers, the scheduler) and other
// (repository packages not listed).
var layers = []string{
	"assign", "cluster", "core", "cut", "dist", "faults", "gateway", "goodenough",
	"governor", "job", "machine", "obs", "power", "qopt", "quality", "rng", "sched",
	"server", "sim", "stats", "workload", "yds", "bench", "net", "runtime", "other",
}

// Function names whose presence anywhere on a stack marks a sample for the
// cumulative shares.
const (
	geSchedule  = "goodenough/internal/core.(*GE).Schedule"
	journalFunc = "goodenough/internal/server.(*Journal)."
)

// packageOf returns the import path of a Go function symbol such as
// "goodenough/internal/core.(*GE).Schedule" or "net/http.(*conn).serve".
// Type arguments, which may hold other import paths, are ignored.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a function to its repository layer; ok is false for
// standard-library and runtime frames.
func layerOf(fn string) (layer string, ok bool) {
	pkg := packageOf(fn)
	switch {
	case pkg == "main":
		return "bench", true
	case pkg == repoModule:
		return "goodenough", true
	case strings.HasPrefix(pkg, repoModule+"/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, repoModule+"/internal/"), "/")
		for _, l := range layers {
			if l == name {
				return l, true
			}
		}
		return "other", true
	case strings.HasPrefix(pkg, repoModule+"/"):
		return "other", true
	}
	return "", false
}

func isRuntime(fn string) bool {
	pkg := packageOf(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || !strings.Contains(fn, ".")
}

// isGC reports whether fn does garbage-collection work.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.sweepone", "runtime.scanobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfile turns samples into shares of all samples:
//   - <layer>.self_frac: the innermost repository frame lies in the layer;
//     standard-library and runtime frames count toward their nearest
//     repository caller, and samples with no repository frame go to net or
//     runtime;
//   - core.cum_frac: (*GE).Schedule is on the stack;
//   - server.journal_frac: a (*Journal) method is on the stack;
//   - runtime.gc_frac: a garbage-collector function is on the stack.
func foldProfile(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		n := float64(s.count)
		total += n
		owner := ""
		allRuntime := true
		var ge, journal, gc bool
		for _, fn := range s.frames {
			if l, ok := layerOf(fn); ok && owner == "" {
				owner = l
			}
			allRuntime = allRuntime && isRuntime(fn)
			ge = ge || fn == geSchedule
			journal = journal || strings.HasPrefix(fn, journalFunc)
			gc = gc || isGC(fn)
		}
		switch {
		case owner != "":
		case allRuntime:
			owner = "runtime"
		default:
			owner = "net"
		}
		out[owner+".self_frac"] += n
		if ge {
			out["core.cum_frac"] += n
		}
		if journal {
			out["server.journal_frac"] += n
		}
		if gc {
			out["runtime.gc_frac"] += n
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}

// setShares reports the profile shares; report.complete zero-fills the
// layers where no sample fell.
func setShares(r *report, samples []stackSample) {
	for k, v := range foldProfile(samples) {
		r.set(k, v)
	}
}

// parseProfile decodes a pprof profile (profile.proto, optionally gzipped)
// into samples counted by its first sample value.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id → string index
		locLines  = map[uint64][]uint64{}
		rawSample []struct {
			locs  []uint64
			value []int64
		}
	)
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var locs []uint64
			var values []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&locs, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			rawSample = append(rawSample, struct {
				locs  []uint64
				value []int64
			}{locs, values})
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
		return nil, err
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, rs := range rawSample {
		if len(rs.value) == 0 {
			continue
		}
		s := stackSample{count: rs.value[0]}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("profile: function name out of range")
				}
				s.frames = append(s.frames, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked (one
// value v) or packed (data holds the values).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
