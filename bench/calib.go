package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Machine-speed calibration. The sandbox this benchmark runs in does not
// deliver a constant CPU: the same work takes 1.0x to 1.45x as long, in
// regimes that last from seconds to minutes (measured: a fixed in-process
// query batch repeated for seven minutes spread 18 % between its quartiles).
// Raw timings therefore cannot be compared between runs a minute apart,
// never mind between commits. Each run instead times a fixed kernel of its
// own — nothing of the program under test in it, so no change to the program
// can move it — in slices before, between and after the segments of the
// timed phase, and reports every timing at reference speed: multiplied by
// calibNominal ÷ the mean of the two slices around it. On the seven-minute
// experiment that took the spread from 18 % to 8 %. Raw values and the
// factor are kept beside the reported ones.

const (
	calibTableWords = 2 << 20    // 8 MB: larger than L2, so cache contention shows as it does for the server
	calibIters      = 11_000_000 // per thread; 0.4 s to 0.6 s
	// calibNominal is the slice time on the reference machine (2 vCPU,
	// Xeon 2.1 GHz) in its fast regime. It only fixes the unit: a reported
	// millisecond is a millisecond at that speed.
	calibNominal = 400 * time.Millisecond
)

var (
	calibTable = func() []uint32 {
		t := make([]uint32, calibTableWords)
		for i := range t {
			t[i] = uint32(i*7919 + 13)
		}
		return t
	}()
	calibSink atomic.Uint32 // keeps the kernel's result alive
)

// calibKernel chases dependent loads through the table and mixes integers:
// latency-bound and compute-bound in turn, like filtering and verification.
func calibKernel(iters int) uint32 {
	x := uint32(1)
	for i := 0; i < iters; i++ {
		x = calibTable[x%calibTableWords] ^ (x*2654435761 + uint32(i))
	}
	return x
}

// calibrate runs one slice on `threads` threads at once — the server's
// GOMAXPROCS, so the slice loads the machine the way the timed phase does —
// and returns its wall time. div shortens the slice for the smoke mode; the
// result is scaled back up to a full slice.
func calibrate(threads, div int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibSink.Add(calibKernel(calibIters / div))
		}()
	}
	wg.Wait()
	return time.Since(start) * time.Duration(div)
}

// speedFactor converts a timing taken between two slices to reference speed.
func speedFactor(before, after time.Duration) float64 {
	return float64(calibNominal) / (float64(before+after) / 2)
}
