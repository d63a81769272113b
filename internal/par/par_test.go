package par

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	for _, n := range []int{0, -1} {
		if got, want := Workers(n), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

// TestForCoversEveryIndexOnce runs For at several worker counts and
// requires every index to run exactly once; one worker must run the
// indices in order on the calling goroutine.
func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 2, 7, n + 3} {
		hits := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	var seen []int
	For(5, 1, func(i int) { seen = append(seen, i) })
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial For ran %v, want 0..4 in order", seen)
		}
	}
	For(0, 4, func(int) { t.Error("For(0) called fn") })
}

// TestOrderedDeliversInSubmissionOrder gives jobs random durations so
// they finish out of order, and checks that delivery is still in
// submission order and that no more than 2×workers jobs are ever
// submitted but undelivered.
func TestOrderedDeliversInSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 300
		rng := rand.New(rand.NewSource(int64(workers)))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		var delivered atomic.Int64
		var got []int
		err := Ordered(context.Background(), workers, func(submit func(func() int) bool) {
			for i := 0; i < n; i++ {
				if !submit(func() int { time.Sleep(delays[i]); return i }) {
					t.Errorf("workers=%d: submit %d refused", workers, i)
					return
				}
				if pending := int64(i+1) - delivered.Load(); pending > int64(2*workers) {
					t.Errorf("workers=%d: %d jobs pending after submit %d, bound %d",
						workers, pending, i, 2*workers)
				}
			}
		}, func(v int) error {
			got = append(got, v)
			delivered.Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: delivered %d of %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: delivery %d carried job %d", workers, i, v)
			}
		}
	}
}

// TestOrderedNeverRunsInline submits, on a one-worker pool, a job that
// waits for input the producer sends only after submit returns. A pool
// that ran the job inside submit would deadlock.
func TestOrderedNeverRunsInline(t *testing.T) {
	done := make(chan []int, 1)
	go func() {
		var got []int
		_ = Ordered(context.Background(), 1, func(submit func(func() int) bool) {
			for i := 0; i < 4; i++ {
				in := make(chan int, 1)
				submit(func() int { return <-in })
				in <- 10 * i
			}
		}, func(v int) error {
			got = append(got, v)
			return nil
		})
		done <- got
	}()
	select {
	case got := <-done:
		if len(got) != 4 || got[0] != 0 || got[3] != 30 {
			t.Fatalf("delivered %v, want [0 10 20 30]", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a job that reads input sent after submit never completed")
	}
}

// TestOrderedEarlyStop stops the pool by a deliver error and by a
// cancelled context at the sixth delivery, and requires Ordered to
// return that error with every goroutine it started gone and its queued
// jobs skipped. Jobs after the sixth run for 300 ms, longer than the
// check waits, so a pool that returned before its running jobs finished
// leaves goroutines behind.
func TestOrderedEarlyStop(t *testing.T) {
	errStop := errors.New("stop")
	for _, tc := range []struct {
		name   string
		cancel bool
	}{{"deliver-error", false}, {"cancel", true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran, submitted atomic.Int64
			refused := false
			err := Ordered(ctx, 3, func(submit func(func() int) bool) {
				for i := 0; i < 1000; i++ {
					job := func() int {
						ran.Add(1)
						if i > 5 {
							time.Sleep(300 * time.Millisecond)
						}
						return i
					}
					if !submit(job) {
						refused = true
						return
					}
					submitted.Add(1)
				}
			}, func(v int) error {
				if v == 5 {
					// Stop once the producer has filled the pool: jobs
					// 6–8 running, 9 and 10 queued.
					for deadline := time.Now().Add(10 * time.Second); submitted.Load() < 11 && time.Now().Before(deadline); {
						runtime.Gosched()
					}
					if tc.cancel {
						cancel()
						return nil
					}
					return errStop
				}
				return nil
			})
			want := errStop
			if tc.cancel {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("Ordered returned %v, want %v", err, want)
			}
			if !refused {
				t.Fatal("submit kept accepting jobs after the stop")
			}
			// The six delivered jobs and the three that occupy the workers
			// when the stop lands may run; the queued rest are skipped.
			if n := ran.Load(); n > 6+3 {
				t.Fatalf("%d jobs ran; an early stop at the sixth delivery allows 9", n)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines alive after Ordered returned, %d before", n, base)
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it is at most base,
// or after 100 ms: a goroutine that signalled its exit is still counted
// until it has run its last deferred call.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(100 * time.Millisecond)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestOrderedConcurrentPools runs pools nested the way the campaign
// nests them — one pool's deliver submits into another — from several
// goroutines at once, for the race detector.
func TestOrderedConcurrentPools(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := 0
			err := Ordered(context.Background(), 2, func(outer func(func() int) bool) {
				_ = Ordered(context.Background(), 3, func(inner func(func() int) bool) {
					for i := 0; i < 50; i++ {
						inner(func() int { return i })
					}
				}, func(v int) error {
					outer(func() int { return v * 2 })
					return nil
				})
			}, func(v int) error {
				sum += v
				return nil
			})
			if err != nil || sum != 2*49*50/2 {
				t.Errorf("nested pools: sum %d, err %v", sum, err)
			}
		}()
	}
	wg.Wait()
}
