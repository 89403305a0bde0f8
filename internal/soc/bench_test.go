package soc

import (
	"testing"

	"tiledcfd/internal/fixed"
)

func benchBand(b *testing.B, blocks int) []fixed.Complex {
	b.Helper()
	return socSamples(9, 256*blocks)
}

// BenchmarkPlatformRunBlock times one integration step on the paper's
// 4-tile platform with the concurrent (goroutine-per-tile) engine.
func BenchmarkPlatformRunBlock(b *testing.B) {
	x := benchBand(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{K: 256, M: 64, Q: 4, Blocks: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.Run(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlatformRunSyncBlock times the lockstep reference engine on
// the same workload.
func BenchmarkPlatformRunSyncBlock(b *testing.B) {
	x := benchBand(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{K: 256, M: 64, Q: 4, Blocks: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.RunSync(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlatformRunWindow times one 2048-sample sensing window on the
// paper's 4-tile platform: eight integration blocks through the
// concurrent engine, the geometry of a Watch window on the platform path.
// It reports the host time per simulated block.
func BenchmarkPlatformRunWindow(b *testing.B) {
	const blocks = 8
	x := benchBand(b, blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{K: 256, M: 64, Q: 4, Blocks: blocks})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.Run(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

// BenchmarkBankScaling times a 4-instance bank (16 cores) sensing four
// bands concurrently — the executed form of the section 5 scaling unit.
func BenchmarkBankScaling(b *testing.B) {
	bands := make([][]fixed.Complex, 4)
	for i := range bands {
		bands[i] = socSamples(uint64(20+i), 256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank, err := NewBank(Config{K: 256, M: 64, Q: 4, Blocks: 1}, 4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bank.Run(bands); err != nil {
			b.Fatal(err)
		}
	}
}
