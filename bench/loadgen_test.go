package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A stalled sender delays every request queued behind it; latency must
// count that wait from when each request was due, and lateness must
// show how far behind schedule each was sent.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	const service = 20 * time.Millisecond
	plan := make([]request, 5) // all due at once
	outs := openLoop(context.Background(), plan, 1, func(request) (int, error) {
		time.Sleep(service)
		return 200, nil
	})
	for i, o := range outs {
		if o.err != nil || o.status != 200 {
			t.Fatalf("request %d: status %d err %v", i, o.status, o.err)
		}
		if want := time.Duration(i) * service; o.late() < want {
			t.Errorf("request %d sent %v late, want at least %v behind the one sender", i, o.late(), want)
		}
		if o.service() < service {
			t.Errorf("request %d service %v, want at least %v", i, o.service(), service)
		}
		if o.latency() != o.late()+o.service() {
			t.Errorf("request %d: latency %v != late %v + service %v", i, o.latency(), o.late(), o.service())
		}
	}
}

// With spare senders, requests go out on schedule: lateness stays small
// and the dispatcher waits for each due time.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	plan := []request{{at: 0}, {at: 30 * time.Millisecond}, {at: 60 * time.Millisecond}}
	outs := openLoop(context.Background(), plan, 2, func(request) (int, error) {
		time.Sleep(time.Millisecond)
		return 200, nil
	})
	for i, o := range outs {
		if o.sent < plan[i].at {
			t.Errorf("request %d sent at %v, before it was due at %v", i, o.sent, plan[i].at)
		}
		if o.late() > 25*time.Millisecond {
			t.Errorf("request %d sent %v late with idle senders", i, o.late())
		}
	}
}

func TestOpenLoopCancelMarksUnsent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := []request{{at: 0}, {at: time.Hour}}
	outs := openLoop(ctx, plan, 1, func(request) (int, error) {
		cancel()
		return 200, nil
	})
	if outs[0].err != nil {
		t.Errorf("sent request: %v", outs[0].err)
	}
	if !errors.Is(outs[1].err, context.Canceled) {
		t.Errorf("unsent request err = %v, want context.Canceled", outs[1].err)
	}
}
