package pipe_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/codegen"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

// sameGoldenInfo compares replay facts structurally (GoldenInfo carries
// the recorded dead-interval slice, so == no longer applies).
func sameGoldenInfo(a, b pipe.GoldenInfo) bool {
	return reflect.DeepEqual(a, b)
}

// simulateGolden is the golden run campaigns replay against, without
// checkpoint capture or dead-def recording.
func simulateGolden(pool *pipe.Pool, p *prog.Program, rc pipe.RunConfig) (*avf.Result, pipe.GoldenInfo, error) {
	res, info, _, err := pool.SimulateGoldenRecorded(p, rc, -1, nil)
	return res, info, err
}

func injectFixture(t testing.TB) (uarch.Config, *pipe.Pool, pipe.RunConfig) {
	t.Helper()
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := pipe.RunConfig{MaxInstructions: 6_000, WarmupInstructions: 2_000}
	return cfg, pool, rc
}

// TestGoldenInfoDeterministic: the commit digest and window start of a
// golden run are reproducible, and unchanged when the pipeline is
// recycled through the pool.
func TestGoldenInfoDeterministic(t *testing.T) {
	cfg, pool, rc := injectFixture(t)
	k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
		NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
		DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	res1, info1, err := simulateGolden(pool, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	res2, info2, err := simulateGolden(pool, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGoldenInfo(info1, info2) {
		t.Fatalf("golden info not reproducible: %+v vs %+v", info1, info2)
	}
	if info1.Digest == 0 {
		t.Fatal("golden digest is zero")
	}
	if info1.Cycles != res1.Cycles || res1.Cycles != res2.Cycles {
		t.Fatalf("cycle mismatch: info %d, results %d/%d", info1.Cycles, res1.Cycles, res2.Cycles)
	}
	if info1.WindowStart <= 0 {
		t.Fatalf("window start %d, want > 0 after a warmup run", info1.WindowStart)
	}
	// A normal pooled Simulate after golden runs must be unaffected by
	// the digest machinery.
	res3, err := pool.Simulate(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cycles != res1.Cycles || res3.AVF != res1.AVF {
		t.Fatal("pooled Simulate after a golden run drifted")
	}
}

// lcg is a tiny deterministic generator for sampling fault targets.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 1)
}

// TestFaultFullReplayMatchesEarly locks the equivalence of the two
// replay modes over every structure: the early-resolution fate (what
// campaigns run) must match the full replay's architectural-state diff
// against the golden digest — masked replays reproduce the golden
// digest bit-exactly, corrupting ones diverge.
func TestFaultFullReplayMatchesEarly(t *testing.T) {
	cfg, pool, rc := injectFixture(t)
	k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
		NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
		DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := simulateGolden(pool, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(7)
	corrupted, masked := 0, 0
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		bits := uarch.Bits(cfg, s)
		for i := 0; i < 12; i++ {
			f := pipe.Fault{
				Structure: s,
				Bit:       rng.next() % bits,
				Cycle:     info.WindowStart + int64(rng.next()%uint64(info.Cycles)),
			}
			early, err := func() (pipe.FaultTrial, error) {
				pl, perr := pipe.New(cfg, p)
				if perr != nil {
					t.Fatal(perr)
				}
				return pl.RunFault(rc, f, false)
			}()
			if err != nil {
				t.Fatalf("%s early trial %d (%+v): %v", s, i, f, err)
			}
			pl, perr := pipe.New(cfg, p)
			if perr != nil {
				t.Fatal(perr)
			}
			full, err := pl.RunFault(rc, f, true)
			if err != nil {
				t.Fatalf("%s full trial %d (%+v): %v", s, i, f, err)
			}
			if early.Corrupted != full.Corrupted {
				t.Errorf("%s %+v: early says corrupted=%v, full replay says %v",
					s, f, early.Corrupted, full.Corrupted)
			}
			if diff := full.Digest != info.Digest; diff != full.Corrupted {
				t.Errorf("%s %+v: digest diff=%v but corrupted=%v", s, f, diff, full.Corrupted)
			}
			if full.Corrupted {
				corrupted++
			} else {
				masked++
			}
		}
	}
	if corrupted == 0 || masked == 0 {
		t.Errorf("degenerate trial mix: %d corrupted, %d masked — sampling covers nothing", corrupted, masked)
	}
}

// TestFaultValidation: malformed faults are rejected, and a fault cycle
// beyond the end of the run is an error rather than a silent masked.
func TestFaultValidation(t *testing.T) {
	cfg, pool, rc := injectFixture(t)
	k := codegen.Knobs{LoopSize: 20, NumLoads: 4, NumStores: 4,
		NumIndepArith: 4, MissDependent: 2, AvgChainLength: 2,
		DepDistance: 2, FracLongLatency: 0.5, FracRegReg: 0.5, Seed: 1}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := simulateGolden(pool, p, rc); err != nil {
		t.Fatal(err)
	}
	pl, err := pipe.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.RunFault(rc, pipe.Fault{Structure: uarch.NumStructures}, false); err == nil {
		t.Error("out-of-range structure accepted")
	}
	if _, err := pl.RunFault(rc, pipe.Fault{Structure: uarch.ROB, Bit: uarch.Bits(cfg, uarch.ROB)}, false); err == nil {
		t.Error("out-of-range bit accepted")
	}
	if _, err := pl.RunFault(rc, pipe.Fault{Structure: uarch.ROB, Cycle: -1}, false); err == nil {
		t.Error("negative cycle accepted")
	}
	if _, err := pl.RunFault(rc, pipe.Fault{Structure: uarch.ROB, Cycle: 1 << 40}, false); err == nil {
		t.Error("beyond-end-of-run cycle accepted")
	}
}

// FuzzFaultBatchMatchesSolo is the one-pass exactness oracle over
// arbitrary fault sets: one replay from cycle zero carrying every fault
// must resolve each exactly as a dedicated replay of that fault alone,
// first divergent commit included. Every 9 input bytes decode to one
// fault — a structure byte, then 4 bytes each of bit and window offset
// — so repeated chunks yield duplicate targets and shared cycles.
func FuzzFaultBatchMatchesSolo(f *testing.F) {
	cfg, pool, rc := injectFixture(f)
	k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
		NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
		DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		f.Fatal(err)
	}
	_, info, err := simulateGolden(pool, p, rc)
	if err != nil {
		f.Fatal(err)
	}
	const chunk, maxFaults = 9, 24
	for _, seed := range []lcg{3, 17, 101} {
		b := make([]byte, 0, chunk*maxFaults)
		for len(b) < cap(b) {
			b = binary.LittleEndian.AppendUint64(b, seed.next())
		}
		f.Add(b[:cap(b)])
	}
	f.Add(bytes.Repeat([]byte{byte(uarch.RF), 1, 2, 3, 4, 5, 6, 7, 8}, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		var faults []pipe.Fault
		for ; len(b) >= chunk && len(faults) < maxFaults; b = b[chunk:] {
			s := uarch.Structure(b[0] % byte(uarch.NumStructures))
			faults = append(faults, pipe.Fault{
				Structure: s,
				Bit:       uint64(binary.LittleEndian.Uint32(b[1:])) % uarch.Bits(cfg, s),
				Cycle:     info.WindowStart + int64(binary.LittleEndian.Uint32(b[5:]))%info.Cycles,
			})
		}
		if len(faults) > 0 {
			batchMatchesSolo(t, pool, p, rc, faults)
		}
	})
}
