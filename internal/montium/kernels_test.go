package montium

import (
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

func testSamples(seed uint64, n int) []fixed.Complex {
	rng := sig.NewRand(seed)
	x := sig.Samples(&sig.WGN{Sigma: 0.4, Real: true, Rng: rng}, n)
	return fixed.FromFloatSlice(x)
}

func configuredCore(t *testing.T, k, m, q, idx int) *Core {
	t.Helper()
	cfg, err := NewCFDConfig(k, m, q, idx)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(idx)
	if err := c.ConfigureCFD(cfg); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunFFTBitExactAgainstPlan(t *testing.T) {
	for _, k := range []int{64, 256} {
		m := k / 4
		c := configuredCore(t, k, m, 4, 0)
		x := testSamples(uint64(k), k)
		if err := c.LoadSamples(x); err != nil {
			t.Fatal(err)
		}
		if err := c.RunFFT(); err != nil {
			t.Fatal(err)
		}
		plan, err := fft.NewFixedPlan(k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]fixed.Complex, k)
		if err := plan.Forward(want, x); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < k; v++ {
			got, err := c.SpectrumValue(v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[v] {
				t.Fatalf("K=%d bin %d: core %+v, plan %+v", k, v, got, want[v])
			}
		}
	}
}

func TestRunFFTCycleCount(t *testing.T) {
	// E8 (FFT row): 256-point FFT = 8 stages x (128 butterflies + 2 setup)
	// = 1040 cycles, as the paper cites from [3].
	c := configuredCore(t, 256, 64, 4, 0)
	if err := c.LoadSamples(testSamples(1, 256)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFFT(); err != nil {
		t.Fatal(err)
	}
	if got := c.CyclesIn(SectionFFT); got != 1040 {
		t.Fatalf("FFT cycles = %d, want 1040", got)
	}
	if c.Butterflies != 1024 {
		t.Fatalf("butterflies = %d, want 1024", c.Butterflies)
	}
}

func TestRunReshuffle(t *testing.T) {
	const k = 64
	c := configuredCore(t, k, 16, 4, 0)
	if err := c.LoadSamples(testSamples(2, k)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFFT(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunReshuffle(); err != nil {
		t.Fatal(err)
	}
	if got := c.CyclesIn(SectionReshuffle); got != k {
		t.Fatalf("reshuffle cycles = %d, want %d", got, k)
	}
	// Reversed buffer element i holds bin -i.
	for v := -k / 2; v < k/2; v++ {
		nat, err := c.naturalValue(v)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := c.reversedValue(v)
		if err != nil {
			t.Fatal(err)
		}
		if nat != rev {
			t.Fatalf("bin %d: natural %+v != reversed-path %+v", v, nat, rev)
		}
	}
}

func TestRunInitChainContents(t *testing.T) {
	const k, m, q = 64, 16, 4
	c := configuredCore(t, k, m, q, 1) // interior core
	if err := c.LoadSamples(testSamples(3, k)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFFT(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunReshuffle(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunInit(); err != nil {
		t.Fatal(err)
	}
	if got := c.CyclesIn(SectionInit); got != int64(2*m-1) {
		t.Fatalf("init cycles = %d, want P=%d", got, 2*m-1)
	}
	t0 := -(m - 1)
	cfg := c.Config()
	for i := 0; i < cfg.OwnT(); i++ {
		a := cfg.LoA + i
		x, err := c.chainX().ReadComplex(cfg.chainSlot(i))
		if err != nil {
			t.Fatal(err)
		}
		wantX, err := c.naturalValue(t0 + a)
		if err != nil {
			t.Fatal(err)
		}
		if x != wantX {
			t.Fatalf("X slot %d (a=%d) = %+v, want bin %d = %+v", i, a, x, t0+a, wantX)
		}
		cv, err := c.chainC().ReadComplex(cfg.chainSlot(i))
		if err != nil {
			t.Fatal(err)
		}
		wantC, err := c.naturalValue(t0 - a)
		if err != nil {
			t.Fatal(err)
		}
		if cv != wantC {
			t.Fatalf("C slot %d (a=%d) = %+v, want bin %d = %+v", i, a, cv, t0-a, wantC)
		}
	}
}

func TestRunInitRequiresReshuffle(t *testing.T) {
	c := configuredCore(t, 64, 16, 4, 0)
	if err := c.LoadSamples(testSamples(4, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFFT(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunInit(); err == nil {
		t.Fatal("RunInit before RunReshuffle should fail")
	}
}

// runPlatformSync orchestrates q cores through the full CFD application
// synchronously (the concurrent version lives in internal/soc) and
// returns the assembled DSCF surface.
func runPlatformSync(t *testing.T, k, m, q int, x []fixed.Complex, blocks int) ([]*Core, *scf.FixedSurface) {
	t.Helper()
	cores := make([]*Core, q)
	for i := range cores {
		cores[i] = configuredCore(t, k, m, q, i)
	}
	f := 2*m - 1
	for n := 0; n < blocks; n++ {
		block := x[n*k : (n+1)*k]
		for _, c := range cores {
			if err := c.LoadSamples(block); err != nil {
				t.Fatal(err)
			}
			if err := c.RunFFT(); err != nil {
				t.Fatal(err)
			}
			if err := c.RunReshuffle(); err != nil {
				t.Fatal(err)
			}
			if err := c.RunInit(); err != nil {
				t.Fatal(err)
			}
		}
		active := make([]*Core, 0, q)
		for _, c := range cores {
			if c.Config().OwnT() > 0 {
				active = append(active, c)
			}
		}
		for step := 0; step < f; step++ {
			// Gather pre-shift boundary values.
			xIns := make([]fixed.Complex, len(active))
			cIns := make([]fixed.Complex, len(active))
			if step > 0 {
				for i, c := range active {
					if i+1 < len(active) {
						xLow, _, err := active[i+1].PeekBoundary()
						if err != nil {
							t.Fatal(err)
						}
						xIns[i] = xLow
					} else {
						v, err := c.SpectrumValue(step)
						if err != nil {
							t.Fatal(err)
						}
						xIns[i] = v
					}
					if i > 0 {
						_, cHigh, err := active[i-1].PeekBoundary()
						if err != nil {
							t.Fatal(err)
						}
						cIns[i] = cHigh
					} else {
						v, err := c.SpectrumValue(step)
						if err != nil {
							t.Fatal(err)
						}
						cIns[i] = v
					}
				}
			}
			for i, c := range active {
				if err := c.MACStep(step, xIns[i], cIns[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	surf := scf.NewFixedSurface(m)
	for _, c := range cores {
		cfg := c.Config()
		for i := 0; i < cfg.OwnT(); i++ {
			a := cfg.LoA + i
			for fi := 0; fi < f; fi++ {
				v, err := c.AccumulatorAt(i, fi)
				if err != nil {
					t.Fatal(err)
				}
				surf.Data[a+m-1][fi] = v
			}
		}
	}
	return cores, surf
}

func TestSingleCoreFullCFDMatchesReference(t *testing.T) {
	// Small grid so one core's memories hold everything (T=P).
	const k, m, blocks = 64, 16, 2
	p := scf.Params{K: k, M: m, Blocks: blocks}
	x := testSamples(21, p.WithDefaults().SamplesNeeded())
	want, err := scf.ComputeFixed(x, p)
	if err != nil {
		t.Fatal(err)
	}
	_, got := runPlatformSync(t, k, m, 1, x, blocks)
	if ok, diag := got.Equal(want); !ok {
		t.Fatalf("single-core Montium CFD deviates: %s", diag)
	}
}

func TestFourCoreFullCFDMatchesReference(t *testing.T) {
	// E8 data path: the paper's full platform (K=256, M=64, Q=4) must
	// produce the bit-exact reference DSCF.
	const k, m, q, blocks = 256, 64, 4, 2
	p := scf.Params{K: k, M: m, Blocks: blocks}
	x := testSamples(22, p.WithDefaults().SamplesNeeded())
	want, err := scf.ComputeFixed(x, p)
	if err != nil {
		t.Fatal(err)
	}
	_, got := runPlatformSync(t, k, m, q, x, blocks)
	if ok, diag := got.Equal(want); !ok {
		t.Fatalf("4-core Montium CFD deviates: %s", diag)
	}
}

func TestTable1Reproduction(t *testing.T) {
	// E8: one integration step on the paper's configuration must measure
	// exactly Table 1 on the fully loaded cores.
	const k, m, q = 256, 64, 4
	x := testSamples(23, k)
	cores, _ := runPlatformSync(t, k, m, q, x, 1)
	want := PaperTable1()
	got := cores[0].Table1()
	if got != want {
		t.Fatalf("Table 1 mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got.Total() != 13996 {
		t.Fatalf("total %d, want 13996", got.Total())
	}
	// Core 3 owns 31 tasks, so its MAC row is 127·31·3.
	last := cores[3].Table1()
	if last.MultiplyAccumulate != 127*31*3 {
		t.Fatalf("core 3 MAC cycles %d, want %d", last.MultiplyAccumulate, 127*31*3)
	}
	// All other rows are identical across cores.
	if last.FFT != want.FFT || last.Reshuffle != want.Reshuffle ||
		last.Initialisation != want.Initialisation || last.ReadData != want.ReadData {
		t.Fatalf("core 3 shared rows differ: %+v", last)
	}
}

func TestMACCountMatchesPaper(t *testing.T) {
	// Paper: "The total number of complex multiply accumulate operations
	// equals T·F = 4064" per (fully loaded) core.
	const k, m, q = 256, 64, 4
	x := testSamples(29, k)
	cores, _ := runPlatformSync(t, k, m, q, x, 1)
	if cores[0].MACs != 4064 {
		t.Fatalf("core 0 MACs = %d, want 4064", cores[0].MACs)
	}
	if cores[3].MACs != 31*127 {
		t.Fatalf("core 3 MACs = %d, want 3937", cores[3].MACs)
	}
}

func TestConfigMemoryBudget(t *testing.T) {
	// E7: the paper's configuration fits (8128 of 8192 words)...
	cfg, err := NewCFDConfig(256, 64, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AccumWordsUsed() != 8128 {
		t.Fatalf("accumulator words %d, want 8128", cfg.AccumWordsUsed())
	}
	// ...but Q=2 (T=64) or Q=1 (T=127) overflows M01..M08.
	if _, err := NewCFDConfig(256, 64, 2, 0); err == nil {
		t.Fatal("Q=2 at M=64 must exceed the 8K-word budget")
	}
	if _, err := NewCFDConfig(256, 64, 1, 0); err == nil {
		t.Fatal("Q=1 at M=64 must exceed the 8K-word budget")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct{ k, m, q, idx int }{
		{100, 8, 4, 0}, // non-pow2 K
		{2, 2, 4, 0},   // K too small
		{64, 1, 4, 0},  // M too small
		{64, 20, 4, 0}, // grid exceeds K/2
		{64, 8, 0, 0},  // Q < 1
		{64, 8, 4, 4},  // core index out of range
		{64, 8, 4, -1}, // negative index
	}
	for i, c := range cases {
		if _, err := NewCFDConfig(c.k, c.m, c.q, c.idx); err == nil {
			t.Errorf("case %d (%+v) should fail", i, c)
		}
	}
}

func TestKernelsRequireConfig(t *testing.T) {
	c := NewCore(0)
	if err := c.LoadSamples(make([]fixed.Complex, 4)); err == nil {
		t.Error("LoadSamples without config should fail")
	}
	if err := c.RunFFT(); err == nil {
		t.Error("RunFFT without config should fail")
	}
	if err := c.RunReshuffle(); err == nil {
		t.Error("RunReshuffle without config should fail")
	}
	if err := c.RunInit(); err == nil {
		t.Error("RunInit without config should fail")
	}
	if err := c.MACStep(0, fixed.Complex{}, fixed.Complex{}); err == nil {
		t.Error("MACStep without config should fail")
	}
	if _, err := c.AccumulatorAt(0, 0); err == nil {
		t.Error("AccumulatorAt without config should fail")
	}
	if _, _, err := c.PeekBoundary(); err == nil {
		t.Error("PeekBoundary without config should fail")
	}
	if err := c.ConfigureCFD(nil); err == nil {
		t.Error("nil config should fail")
	}
}

func TestKernelArgumentValidation(t *testing.T) {
	c := configuredCore(t, 64, 16, 4, 0)
	if err := c.LoadSamples(make([]fixed.Complex, 10)); err == nil {
		t.Error("wrong sample count should fail")
	}
	if err := c.LoadSamples(testSamples(5, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.MACStep(-1, fixed.Complex{}, fixed.Complex{}); err == nil {
		t.Error("negative step should fail")
	}
	if err := c.MACStep(31, fixed.Complex{}, fixed.Complex{}); err == nil {
		t.Error("step >= F should fail")
	}
	if _, err := c.AccumulatorAt(99, 0); err == nil {
		t.Error("accumulator out of range should fail")
	}
	if _, err := c.AccumulatorAt(0, 99); err == nil {
		t.Error("accumulator fi out of range should fail")
	}
}

func TestZeroAccumulators(t *testing.T) {
	const k, m = 64, 16
	x := testSamples(31, k)
	cores, _ := runPlatformSync(t, k, m, 1, x, 1)
	c := cores[0]
	// Some accumulator must be non-zero after a run.
	nz := false
	for i := 0; i < c.Config().OwnT() && !nz; i++ {
		for fi := 0; fi < c.Config().F && !nz; fi++ {
			if v, _ := c.AccumulatorAt(i, fi); !v.IsZero() {
				nz = true
			}
		}
	}
	if !nz {
		t.Fatal("no accumulator became non-zero")
	}
	if err := c.ZeroAccumulators(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Config().OwnT(); i++ {
		for fi := 0; fi < c.Config().F; fi++ {
			if v, _ := c.AccumulatorAt(i, fi); !v.IsZero() {
				t.Fatalf("accumulator (%d,%d) not cleared", i, fi)
			}
		}
	}
}

func TestPaperTable1Values(t *testing.T) {
	want := PaperTable1()
	if want.Total() != 13996 {
		t.Fatalf("paper total %d", want.Total())
	}
	s := want.String()
	for _, row := range []string{"multiply accumulate", "12192", "381", "1040", "256", "127", "13996"} {
		if !containsStr(s, row) {
			t.Fatalf("Table 1 rendering missing %q:\n%s", row, s)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexStr(haystack, needle) >= 0
}

func indexStr(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

// TestMACStepAllocs: a steady-state MAC step of the paper's tile — the
// chain shift, the T multiply-accumulates and the ledger charges —
// allocates nothing.
func TestMACStepAllocs(t *testing.T) {
	c := configuredCore(t, 256, 64, 4, 1)
	for _, run := range []func() error{
		func() error { return c.LoadSamples(testSamples(5, 256)) },
		c.RunFFT, c.RunReshuffle, c.RunInit,
		func() error { return c.MACStep(0, fixed.Complex{}, fixed.Complex{}) },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	step, f := 1, c.Config().F
	in := fixed.Complex{Re: 1000, Im: -2000}
	if a := testing.AllocsPerRun(100, func() {
		if err := c.MACStep(step, in, in); err != nil {
			t.Fatal(err)
		}
		if step++; step == f {
			step = 1
		}
	}); a != 0 {
		t.Fatalf("MACStep allocates %v times per step, want 0", a)
	}
}
