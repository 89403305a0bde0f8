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

// FuzzSSCAAccumulatorWindow checks the streaming SSCA against batch
// Estimate, bit for bit, on a random window length, chunking, analysis
// window, strip length, alpha-candidate set and mode: bounded to the
// window (the stream engine's windowed serving) or cumulative. Snapshots
// at the shortest accepted prefix, part-way through and at the window's
// end must each equal the batch surface of the same prefix (or both must
// refuse it); a bounded accumulator refuses a push past its window, and a
// cumulative one keeps integrating to match the longer batch input.
// Geometry K=32, M=8 keeps each input cheap; the window spans 63 to
// ~2100 samples, so strips of 32 to 2048 positions.
//
//	win:    window length beyond the 2K-1 minimum
//	chunks: push sizes, 1+byte each, cycled (empty: one push)
//	cands:  alpha-candidate bit set over a in [0, 7] (0: full plane)
//	geom:   bit 0 a Hamming window, bit 1 cumulative mode, bits 2-3
//	        the strip length N (derived, K, 2K or 8K)
//	seed:   band seed
func FuzzSSCAAccumulatorWindow(f *testing.F) {
	f.Add(uint16(0), []byte{}, uint8(0), uint8(0), uint64(1))
	f.Add(uint16(2000), []byte{0, 6, 255}, uint8(0), uint8(2), uint64(2))
	f.Add(uint16(1234), []byte{127}, uint8(0b1001_0110), uint8(1), uint64(3))
	f.Add(uint16(999), []byte{9, 0}, uint8(1), uint8(0b0111), uint64(4))
	f.Add(uint16(333), []byte{31, 63}, uint8(0b1000_0000), uint8(0b1100), uint64(5))
	f.Fuzz(func(t *testing.T, win uint16, chunks []byte, cands, geom uint8, seed uint64) {
		const k, m = 32, 8
		p := scf.Params{K: k, M: m}
		if geom&1 != 0 {
			p.Window = fft.Hamming
		}
		cumulative := geom&2 != 0
		for a := 0; a < m; a++ {
			if cands&(1<<a) != 0 {
				p.AlphaCandidates = append(p.AlphaCandidates, a)
			}
		}
		e := SSCA{Params: p, N: []int{0, k, 2 * k, 8 * k}[geom>>2&3]}
		window := 2*k - 1 + int(win)%2048
		sizes := []int{window}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, int(c)+1)
			}
		}
		x := streamBand(t, window+window/2+1, seed)
		var acc scf.Accumulator
		if cumulative {
			var err error
			if acc, err = e.NewAccumulator(); err != nil {
				t.Fatal(err)
			}
		} else {
			acc = boundedAccumulator(t, e, window)
		}
		check := func(cut int) {
			t.Helper()
			got, _, gotErr := acc.Snapshot()
			want, _, wantErr := e.Estimate(x[:cut])
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("prefix %d: snapshot error %v, batch error %v", cut, gotErr, wantErr)
			}
			if wantErr == nil {
				requireIdentical(t, got, want, "ssca window prefix")
			}
		}
		done := 0
		for _, cut := range prefixCuts(2*k-1, window) {
			pushChunks(t, acc, x[done:cut], sizes)
			done = cut
			check(cut)
		}
		// A window too short for a fixed strip leaves the accumulator
		// unbounded, as the stream engine expects.
		bounded := !cumulative && (e.N == 0 || window >= e.N+k-1)
		err := acc.Push(x[window:])
		if bounded != (err != nil) {
			t.Fatalf("push past the window (bounded=%v) returned %v", bounded, err)
		}
		if err == nil {
			check(len(x))
		}
	})
}
