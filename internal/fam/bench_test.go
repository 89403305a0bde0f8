package fam_test

import (
	"testing"

	"tiledcfd"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
)

// benchEstimators builds the three estimators at the paper's geometry
// (K=256, M=64) for a band of blocks·K samples.
func benchEstimators(blocks int) []scf.Estimator {
	p := scf.Params{K: 256, M: 64}
	direct := p
	direct.Blocks = blocks
	return []scf.Estimator{
		scf.Direct{Params: direct},
		fam.FAM{Params: p},
		fam.SSCA{Params: p},
	}
}

// BenchmarkEstimators compares the three spectral-correlation estimators
// on the same BPSK band at the paper's geometry: wall-clock per estimate
// plus the complex-multiplication counts each spends in FFTs and in
// pointwise products (the complexity comparison of the paper's section 2,
// extended to the time-smoothing estimators).
func BenchmarkEstimators(b *testing.B) {
	const blocks = 8
	band, err := tiledcfd.NewBPSKBand(256*blocks, 0.125, 8, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range benchEstimators(blocks) {
		b.Run(e.Name(), func(b *testing.B) {
			var stats *scf.Stats
			for i := 0; i < b.N; i++ {
				_, st, err := e.Estimate(band)
				if err != nil {
					b.Fatal(err)
				}
				stats = st
			}
			b.ReportMetric(float64(stats.FFTMults), "fft_mults")
			b.ReportMetric(float64(stats.DSCFMults), "pointwise_mults")
			b.ReportMetric(float64(stats.TotalMults()), "total_mults")
			b.ReportMetric(float64(stats.Blocks), "smoothing_len")
		})
	}
}

// BenchmarkFAMAccumulatorWindow times one serving window of the streaming
// FAM the way the stream engine's windowed mode spends it: push a
// 16384-sample window in 2048-sample chunks into an accumulator bounded
// to that window, snapshot, reset. It reports the cost per window sample
// for the full plane and for a 4-candidate alpha-pruned channel.
func BenchmarkFAMAccumulatorWindow(b *testing.B) {
	const window, chunk = 16384, 2048
	band, err := tiledcfd.NewBPSKBand(window, 0.125, 8, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		alphas []int
	}{{"full", nil}, {"pruned", []int{0, 16, 32, 48}}} {
		b.Run(tc.name, func(b *testing.B) {
			e := fam.FAM{Params: scf.Params{K: 256, M: 64, AlphaCandidates: tc.alphas}}
			acc, err := e.NewAccumulator()
			if err != nil {
				b.Fatal(err)
			}
			acc.(scf.WindowBounder).BoundWindow(window)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < window; off += chunk {
					if err := acc.Push(band[off : off+chunk]); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := acc.Snapshot(); err != nil {
					b.Fatal(err)
				}
				acc.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/sample")
		})
	}
}
