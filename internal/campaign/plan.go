package campaign

import (
	"context"
	"runtime"
	"sync"
)

// stageWorkers returns the fan-out for a stage of n items nested under a
// caller already running `width` stages concurrently: the machine's
// parallelism left over once the caller has claimed its workers, clamped
// to the item count (minimum 1). The two levels multiply to at most
// GOMAXPROCS, so nested stages never oversubscribe the machine.
func stageWorkers(width, n int) int {
	if width < 1 {
		width = 1
	}
	per := runtime.GOMAXPROCS(0) / width
	if per > n {
		per = n
	}
	if per < 1 {
		per = 1
	}
	return per
}

// Stream is the campaign pipeline: it runs work(i) for i in 0..n-1
// across a bounded worker pool and delivers every result to sink in
// index order — the deterministic ordered merge that keeps streaming
// campaign output byte-identical to a serial loop. The pool has
// GOMAXPROCS workers (at most n). sink runs on the calling goroutine; the
// queue between the workers and the merge is bounded, so a slow sink
// backpressures the workers instead of buffering the whole campaign.
//
// Cancelling ctx stops the dispatch of new case indices; cases already
// in flight run to completion and still reach the sink, so a cancelled
// stream delivers a contiguous, exactly-once prefix of the case list —
// the invariant the shard resume path depends on. A nil ctx streams to
// completion.
func Stream[R any](ctx context.Context, n int, work func(i int) R, sink func(i int, r R)) {
	streamWith(ctx, stageWorkers(1, n), n, work, sink)
}

// streamWith is Stream with an explicit worker count (RunMatrix budgets
// its representative stage against the caller's width).
func streamWith[R any](ctx context.Context, workers, n int, work func(i int) R, sink func(i int, r R)) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			sink(i, work(i))
		}
		return
	}
	type item struct {
		i int
		r R
	}
	jobs := make(chan int)
	// The done queue is bounded by the worker count: a finished worker
	// blocks until the merge drains, bounding the reorder window (and so
	// memory) to O(workers) regardless of campaign size.
	done := make(chan item, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				done <- item{i, work(i)}
			}
		}()
	}
	go func() {
	dispatch:
		for i := 0; i < n; i++ {
			// select picks at random when a worker is waiting and the
			// context is already done; check first, so a cancelled
			// stream dispatches nothing more.
			if ctx.Err() != nil {
				break
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Stop handing out new cases; the workers drain what was
				// already dispatched, so the merge still emits a clean,
				// in-order prefix before the stream returns.
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()
	// Ordered merge: results arrive out of order; emit them to the sink
	// strictly by index. Because jobs dispatch in order, at most
	// 2×workers results can be pending ahead of the next index.
	pending := make(map[int]R, workers)
	next := 0
	for it := range done {
		pending[it.i] = it.r
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			sink(next, r)
			next++
		}
	}
}
