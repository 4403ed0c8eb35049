package main

import (
	"context"
	"sync"
	"time"
)

// request is one entry of an open-loop schedule.
type request struct {
	// at is when the request is due, measured from the run's start.
	at    time.Duration
	class string
	// method, path and body describe the HTTP request.
	method, path string
	body         []byte
	// check validates a 200 response body.
	check func(body []byte) error
}

// outcome is what happened to one scheduled request. Times are
// measured from the run's start.
type outcome struct {
	sched, sent, done time.Duration
	status            int
	err               error
}

// latency is measured from when the request was due, not from when it
// was sent, so a stall counts against every request it delays.
func (o outcome) latency() time.Duration { return o.done - o.sched }

// late is how far behind schedule the generator sent the request.
func (o outcome) late() time.Duration { return o.sent - o.sched }

// service is the time the request took once sent.
func (o outcome) service() time.Duration { return o.done - o.sent }

// openLoop sends every request of plan when it is due, whether or not
// earlier requests have completed, over at most conns concurrent
// senders; a request due while every sender is busy waits, and the
// wait counts in its latency. do sends one request and returns the
// HTTP status. Canceling ctx stops dispatch; requests never sent report
// ctx's error.
func openLoop(ctx context.Context, plan []request, conns int, do func(request) (int, error)) []outcome {
	out := make([]outcome, len(plan))
	// Sized to the number of sends, so the dispatcher never waits on a
	// sender and always dispatches on schedule.
	due := make(chan int, len(plan))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				o := &out[i]
				o.sent = time.Since(start)
				o.status, o.err = do(plan[i])
				o.done = time.Since(start)
			}
		}()
	}
	sent := 0
dispatch:
	for i := range plan {
		out[i].sched = plan[i].at
		if wait := plan[i].at - time.Since(start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			case <-timer.C:
			}
		}
		due <- i
		sent++
	}
	close(due)
	wg.Wait()
	for i := sent; i < len(plan); i++ {
		out[i].err = ctx.Err()
	}
	return out
}
