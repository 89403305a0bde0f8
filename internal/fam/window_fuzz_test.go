package fam

import (
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// FuzzFAMAccumulatorWindow checks the window-bounded streaming FAM against
// batch Estimate, bit for bit, on a random window length, chunking,
// channelizer hop, analysis window and alpha-candidate set: a snapshot
// part-way through the window (the flush a channel removal makes) and at
// its end must both equal the batch surface of the same prefix, and a
// push past the window must fail. Geometry K=32, M=8 keeps each input
// cheap; the window spans 2 to ~270 hops.
//
//	win:    window length beyond the two-hop minimum
//	chunks: push sizes, 1+byte each, cycled (empty: one push)
//	cands:  alpha-candidate bit set over a in [0, 7] (0: full plane)
//	geom:   bits 0-1 pick the hop, bit 2 a Hamming window
//	seed:   band seed
func FuzzFAMAccumulatorWindow(f *testing.F) {
	f.Add(uint16(0), []byte{}, uint8(0), uint8(0), uint64(1))
	f.Add(uint16(2000), []byte{0, 6, 255}, uint8(0), uint8(0), uint64(2))
	f.Add(uint16(1234), []byte{127}, uint8(0b1001_0110), uint8(4), uint64(3))
	f.Add(uint16(999), []byte{9, 0}, uint8(1), uint8(1), uint64(4))
	f.Add(uint16(333), []byte{31, 63}, uint8(0b1000_0000), uint8(6), uint64(5))
	f.Fuzz(func(t *testing.T, win uint16, chunks []byte, cands, geom uint8, seed uint64) {
		const k, m = 32, 8
		p := scf.Params{K: k, M: m, Hop: []int{8, 5, 32, 45}[geom&3]}
		if geom&4 != 0 {
			p.Window = fft.Hamming
		}
		for a := 0; a < m; a++ {
			if cands&(1<<a) != 0 {
				p.AlphaCandidates = append(p.AlphaCandidates, a)
			}
		}
		window := k + p.Hop + int(win)%2048
		sizes := []int{window}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, int(c)+1)
			}
		}
		e := FAM{Params: p}
		x := streamBand(t, window+1, seed)
		acc := boundedAccumulator(t, e, window)
		done := 0
		for _, cut := range prefixCuts(k+p.Hop, window) {
			pushChunks(t, acc, x[done:cut], sizes)
			done = cut
			got, _, err := acc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := e.Estimate(x[:cut])
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, "bounded window prefix")
		}
		if err := acc.Push(x[window:]); err == nil {
			t.Fatal("push past the window succeeded")
		}
	})
}
