package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile of the traced repetition, bucketed by symbol, is the host-time
// attribution every later perf issue cites. The profile is the gzipped
// protobuf runtime/pprof writes; only the handful of fields the bucketing
// needs are decoded here, so the harness needs nothing outside the standard
// library.

// stackSample is one profile sample: function names leaf first (inlined
// frames expanded) and the sample count.
type stackSample struct {
	Stack []string
	Count int64
}

// bucketRule sends a sample to Bucket when any of Match is a substring of the
// frame the rule looks at.
type bucketRule struct {
	Bucket string
	// Where selects the frames tested: "any" frame of the stack; the "leaf";
	// the "model" frame (the nearest frame outside the Go runtime, which is
	// the code that asked for the work); "blocked", the model frame of a
	// sample whose leaf is in the runtime (the model code is inside a channel
	// operation or the scheduler, not doing its own work); or "scheduler", a
	// stack with no model frame at all, which needs no Match.
	Where string
	Match []string
}

// bucketRules is ordered: the first rule that matches wins, and a sample no
// rule matches is "other". A stack with nothing but runtime frames that is
// not a GC worker is the Go scheduler switching goroutines between simulated
// processes: hand-off.
var bucketRules = []bucketRule{
	{"setup", "any", []string{"bench.Options.gammaMachine", "bench.newTera", "bench.loadSpecRel",
		"core.(*Machine).Load", "core.(*Machine).Snapshot", "core.RestoreMachine",
		"teradata.(*Machine).Load", "wisconsin.Generate"}},
	{"alloc_gc", "any", []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMarkTermination"}},
	{"datamove", "leaf", []string{"runtime.memmove", "runtime.memclrNoHeapPointers",
		"runtime.memclrHasPointers", "runtime.growslice", "runtime.typedmemmove", "runtime.typedslicecopy"}},
	{"alloc_gc", "any", []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"gcWriteBarrier", "runtime.wbBufFlush", "runtime.newstack", "runtime.morestack"}},
	{"handoff", "scheduler", nil},
	{"handoff", "model", []string{"sim.(*Proc).park", "sim.(*Proc).wake", "sim.(*Sim).spawnOn"}},
	{"handoff", "blocked", []string{"sim.(*Sim).fireSerial", "sim.(*Sim).runSerial", "sim.(*Sim).runShardWindow",
		"sim.(*Sim).runGroupMerged"}},
	{"windows", "model", []string{"sim.(*Sim).runWindows", "sim.(*Sim).runShardWindow", "sim.(*Sim).runGroup",
		"sim.(*Sim).drainOutbox", "sim.(*Sim).flushWindowTrace", "sim.(*Sim).fusionTick", "sim.(*Sim).rebuildGroups",
		"sim.(*Sim).initLevel", "sim.(*group).", "sim.(*outbox).", "sim.(*Shard).Promise", "sim.(*Shard).eot",
		"sim.(*Shard).floorTo", "sim.(*Shard).baseFloor", "sim.(*Shard).SetOutFloor", "sim.(*Shard).SetChannelFloor"}},
	{"calendar", "model", []string{"gamma/internal/sim."}},
	{"trace", "model", []string{"gamma/internal/trace."}},
	{"model_core", "model", []string{"gamma/internal/core.", "gamma/internal/teradata.", "gamma/internal/rel.",
		"gamma/internal/config."}},
	{"model_wiss", "model", []string{"gamma/internal/wiss.", "gamma/internal/disk."}},
	{"model_nose", "model", []string{"gamma/internal/nose."}},
}

// isRuntime reports whether a frame belongs to the Go runtime, to the
// libraries it calls into on a goroutine switch, or to its assembly helpers
// (aeshashbody, gcWriteBarrier, ...: names without a package).
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/") || strings.HasPrefix(fn, "sync.") ||
		strings.HasPrefix(fn, "sync/atomic.") || !strings.Contains(fn, ".")
}

// matchRule returns the index of the first rule in bucketRules that claims
// the stack (leaf first), or -1.
func matchRule(stack []string) int {
	if len(stack) == 0 {
		return -1
	}
	model := ""
	for _, fn := range stack {
		if !isRuntime(fn) {
			model = fn
			break
		}
	}
	matches := func(fn string, subs []string) bool {
		for _, s := range subs {
			if strings.Contains(fn, s) {
				return true
			}
		}
		return false
	}
	for i, r := range bucketRules {
		switch r.Where {
		case "any":
			for _, fn := range stack {
				if matches(fn, r.Match) {
					return i
				}
			}
		case "leaf":
			if matches(stack[0], r.Match) {
				return i
			}
		case "scheduler":
			if model == "" {
				return i
			}
		case "model", "blocked":
			if model != "" && matches(model, r.Match) && (r.Where == "model" || isRuntime(stack[0])) {
				return i
			}
		}
	}
	return -1
}

func bucketOf(stack []string) string {
	if i := matchRule(stack); i >= 0 {
		return bucketRules[i].Bucket
	}
	return "other"
}

// hostShares buckets every sample; the shares sum to 1.
func hostShares(samples []stackSample) map[string]float64 {
	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		shares[bucketOf(s.Stack)] += float64(s.Count)
		total += s.Count
	}
	for b := range shares {
		shares[b] /= float64(total)
	}
	return shares
}

// readProfile decodes a pprof CPU profile, as runtime/pprof writes it, into
// stacks of function names.
func readProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	samples, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return samples, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num    int
	packed bool // length-delimited
	value  uint64
	bytes  []byte
}

// pbFields walks one protobuf message.
func pbFields(b []byte, visit func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.packed, f.bytes, b = true, b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated appends a repeated uint64 field that may arrive packed.
func pbRepeated(dst []uint64, f pbField) []uint64 {
	if !f.packed {
		return append(dst, f.value)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

// decodeProfile reads the Profile message of pprof's profile.proto: samples
// (field 2: location ids, values), locations (4: id, lines -> function id),
// functions (5: id, name index) and the string table (6). The last value of
// a CPU sample is its nanoseconds; the first is the sample count, which is
// what the shares are taken over.
func decodeProfile(data []byte) ([]stackSample, error) {
	type rawSample struct{ locs, values []uint64 }
	var raws []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	err := pbFields(data, func(f pbField) error {
		switch f.num {
		case 2:
			var s rawSample
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					s.locs = pbRepeated(s.locs, g)
				case 2:
					s.values = pbRepeated(s.values, g)
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4:
					return pbFields(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	samples := make([]stackSample, 0, len(raws))
	for _, r := range raws {
		if len(r.values) == 0 {
			continue
		}
		s := stackSample{Count: int64(r.values[0])}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.Stack = append(s.Stack, strs[idx])
				}
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}
