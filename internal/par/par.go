// Package par is the one scheduling discipline behind every parallel
// stage — synthesis, the analysis fold, capture decoding, model training
// and fleet homes. Work runs on a bounded set of goroutines and results
// are placed or delivered by submission index, never by completion
// order, so output does not depend on the worker count. For covers
// index-parallel work into pre-sized slots; Ordered covers streams.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is taken literally,
// anything else means GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n), handed out in increasing order,
// on at most workers goroutines and returns when every call has
// finished. With one worker (or one item) it is a plain loop on the
// calling goroutine. Callers keep determinism by making fn(i) write only
// to slot i of a pre-sized output.
func For(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Ordered runs the jobs that produce submits on workers goroutines
// (at least one) and passes their results to deliver serially, in
// submission order. It returns once produce has returned, every
// submitted job has been delivered or dropped, and every goroutine it
// started has exited.
//
// produce runs on the calling goroutine; it, or a goroutine it waits
// for, calls submit one call at a time until produce returns. submit
// queues a job and returns true; jobs start first-in first-out, and a
// job always runs on a worker, never inline in submit, so a job may read
// input that produce sends only after submitting it. At most 2×workers
// jobs are submitted but not yet delivered; submit blocks past that
// bound, so memory stays proportional to workers however far production
// outruns delivery.
//
// A cancelled ctx or a non-nil error from deliver stops the pool early:
// submit returns false from then on, queued jobs are skipped, pending
// results are dropped, and Ordered returns that error (ctx.Err() for a
// cancellation). A job that is already running finishes first. A job
// that is skipped never reads its input, so a producer must stop
// feeding jobs once submit returns false.
func Ordered[R any](ctx context.Context, workers int, produce func(submit func(job func() R) bool), deliver func(R) error) error {
	if workers < 1 {
		workers = 1
	}
	limit := 2 * workers
	type slot struct {
		job  func() R
		res  R
		done chan struct{}
	}
	var (
		// tokens counts submitted-but-undelivered jobs; queue and order
		// each hold a subset of them, so their sends never block.
		tokens = make(chan struct{}, limit)
		queue  = make(chan *slot, limit)
		order  = make(chan *slot, limit)
		stop   = make(chan struct{})
		once   sync.Once
		err    error
	)
	halt := func(e error) {
		once.Do(func() {
			err = e
			close(stop)
		})
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for s := range queue {
				if !stopped() {
					s.res = s.job()
				}
				close(s.done)
			}
		}()
	}
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		for s := range order {
			if ctx.Err() != nil {
				halt(ctx.Err())
			}
			select {
			case <-s.done:
			case <-stop:
			case <-ctx.Done():
				halt(ctx.Err())
			}
			if stopped() {
				continue
			}
			if e := deliver(s.res); e != nil {
				halt(e)
				continue
			}
			<-tokens
		}
	}()

	produce(func(job func() R) bool {
		if ctx.Err() != nil {
			halt(ctx.Err())
		}
		if stopped() {
			return false
		}
		select {
		case tokens <- struct{}{}:
		case <-stop:
			return false
		case <-ctx.Done():
			halt(ctx.Err())
			return false
		}
		s := &slot{job: job, done: make(chan struct{})}
		order <- s
		queue <- s
		return true
	})
	close(queue)
	close(order)
	wg.Wait()
	<-delivered
	return err
}
