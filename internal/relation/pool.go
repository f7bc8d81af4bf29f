package relation

import (
	"runtime"
	"sync"
)

// Worker-pool primitives shared by the factorized engine in package
// wsdexec and the parallel decoder in package inline. The pool
// is sized by GOMAXPROCS and bounded: callers pick a partition count
// with NumParts and fan out with ParallelDo/ParallelChunks, which block
// until every worker finishes, so parallelism never escapes an
// operator's evaluation.

// MaxFanOut caps the partition count: beyond this, per-partition hash
// tables get too small to amortize their allocation.
const MaxFanOut = 16

var (
	// ForceParts, when positive, fixes the partition count regardless of
	// GOMAXPROCS and input size. Tests set it (in a TestMain, before any
	// evaluation runs) to push every operator through the partitioned
	// code paths — and the race detector — on any machine, including
	// single-core CI runners.
	ForceParts int

	// SeqThreshold is the input size (in tuples) below which parallel
	// callers stay sequential: goroutine fan-out costs more than it
	// saves on small inputs.
	SeqThreshold = 4096
)

// NumParts picks the partition count for work over n input tuples.
func NumParts(n int) int {
	if ForceParts > 0 {
		return ForceParts
	}
	w := runtime.GOMAXPROCS(0)
	if w <= 1 || n < SeqThreshold {
		return 1
	}
	if w > MaxFanOut {
		w = MaxFanOut
	}
	return w
}

// ParallelDo runs f(p) for every partition p in [0, parts) and waits.
// With one partition it stays on the calling goroutine.
func ParallelDo(parts int, f func(part int)) {
	if parts <= 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts)
	for p := 0; p < parts; p++ {
		go func(p int) {
			defer wg.Done()
			f(p)
		}(p)
	}
	wg.Wait()
}

// ParallelChunks splits [0, n) into parts contiguous chunks and runs
// f(chunk, lo, hi) for each non-empty chunk on the pool. Chunk indexes
// are stable, so callers can write per-chunk output slots without
// coordination.
func ParallelChunks(n, parts int, f func(chunk, lo, hi int)) {
	if n == 0 {
		return
	}
	if parts <= 1 || n < parts {
		parts = 1
	}
	size := (n + parts - 1) / parts
	ParallelDo(parts, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo < hi {
			f(c, lo, hi)
		}
	})
}
