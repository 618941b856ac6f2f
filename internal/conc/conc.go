// Package conc provides the small deterministic-concurrency primitive
// shared by the solver layer (internal/core) and the experiment harness
// (internal/exper): a bounded worker pool whose results come back in index
// order, so downstream aggregation is bit-for-bit identical to a serial
// run regardless of scheduling.
package conc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ForEach runs fn for indices 0..n−1 on a bounded worker pool and returns
// the per-index results in index order. workers ≤ 0 means GOMAXPROCS; the
// pool never exceeds n. Every index is attempted even after a failure; the
// first error (by index, not by completion time) wins, matching what a
// plain serial loop that collects all errors would report.
//
// A panic in fn is recovered per index, so the pool keeps draining and a
// panic on a worker goroutine never kills the process. Once every index
// has been attempted, ForEach re-panics on its caller's goroutine with a
// *Panic carrying the lowest panicking index, its value and the stack it
// was raised on; a recover on the caller (the serve engine's) sees it.
func ForEach[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	if workers == 1 {
		// Serial fast path: no goroutine or channel traffic.
		var fp firstPanic
		for i := 0; i < n; i++ {
			call(&fp, fn, i, &results[i], &errs[i])
		}
		fp.repanic()
	} else {
		fp := &firstPanic{}
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					call(fp, fn, i, &results[i], &errs[i])
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		fp.repanic()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Panic is the value ForEach re-panics with when fn panicked: the lowest
// index that panicked, the value it panicked with, and the stack of the
// goroutine it was raised on. Its Error text names the index and the
// value only; the stack is for logs.
type Panic struct {
	Index int
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("conc: index %d panicked: %v", p.Index, p.Value) }

// firstPanic keeps the lowest-index panic recovered by ForEach.
type firstPanic struct {
	mu sync.Mutex
	p  *Panic
}

// call runs fn(i) into its result slots, recovering a panic into fp.
func call[T any](fp *firstPanic, fn func(int) (T, error), i int, res *T, err *error) {
	defer fp.catch(i)
	*res, *err = fn(i)
}

// catch is deferred around each index.
func (fp *firstPanic) catch(i int) {
	v := recover()
	if v == nil {
		return
	}
	stack := debug.Stack()
	fp.mu.Lock()
	if fp.p == nil || i < fp.p.Index {
		fp.p = &Panic{Index: i, Value: v, Stack: stack}
	}
	fp.mu.Unlock()
}

// repanic re-raises the kept panic, if any, on the calling goroutine.
func (fp *firstPanic) repanic() {
	if fp.p != nil {
		panic(fp.p)
	}
}
