package server

// Per-job live streaming: every completed training step publishes one
// StreamEvent to each subscriber over a bounded buffered channel. The
// training goroutine never blocks on a slow consumer — a full buffer
// drops the event and counts it (per subscriber, and globally under
// server.sse.dropped) — so observation can never stall a job into the
// watchdog's arms. The HTTP layer renders subscriptions as Server-Sent
// Events; Subscribe is also usable directly in-process (the soak harness
// does).

import (
	"fmt"
	"sync/atomic"
	"time"
)

// StreamEvent is one per-step update on a job's stream.
type StreamEvent struct {
	Job  string  `json:"job"`
	Step int     `json:"step"`
	Loss float64 `json:"loss"`
	// StepNS is the wall-clock delta since the previous completed step
	// (0 on the first event of a run).
	StepNS int64 `json:"step_ns"`
	// RawBytes/HeldBytes/Ratio mirror the newest memory-timeline sample:
	// what the stash would hold uncompressed vs what it actually holds.
	RawBytes  int64   `json:"raw_bytes,omitempty"`
	HeldBytes int64   `json:"held_bytes,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	// State/Reason are filled on the final event of a stream.
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
}

// subscriber is one attached consumer.
type subscriber struct {
	ch      chan StreamEvent
	dropped atomic.Uint64
}

// Subscription is a live handle on one job's step stream. Receive from C;
// Done is closed when the job reaches a terminal state (drain C, then
// read the final status via Server.Get). Always Close.
type Subscription struct {
	C    <-chan StreamEvent
	Done <-chan struct{}
	j    *job
	sub  *subscriber
}

// DefaultStreamBuffer is the per-subscriber channel depth used when
// Subscribe is given a non-positive buffer.
const DefaultStreamBuffer = 64

// Subscribe attaches a consumer to a job's step stream. Terminal jobs can
// be subscribed to — Done is already closed and C stays empty, so SSE
// clients still get the final-state event.
func (s *Server) Subscribe(id string, buf int) (*Subscription, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if buf <= 0 {
		buf = DefaultStreamBuffer
	}
	sub := &subscriber{ch: make(chan StreamEvent, buf)}
	j.subMu.Lock()
	if j.subs == nil {
		j.subs = map[*subscriber]struct{}{}
	}
	j.subs[sub] = struct{}{}
	j.subMu.Unlock()
	return &Subscription{C: sub.ch, Done: j.done, j: j, sub: sub}, nil
}

// Close detaches the subscription; the publisher stops copying events to
// it. Safe to call more than once.
func (sub *Subscription) Close() {
	if sub == nil {
		return
	}
	sub.j.subMu.Lock()
	delete(sub.j.subs, sub.sub)
	sub.j.subMu.Unlock()
}

// Dropped reports how many events this subscriber lost to a full buffer.
func (sub *Subscription) Dropped() uint64 {
	if sub == nil {
		return 0
	}
	return sub.sub.dropped.Load()
}

// publishStep fans one completed step out to the job's subscribers.
// Called on the training goroutine; must never block.
func (s *Server) publishStep(j *job, step int, loss float64) {
	now := time.Now().UnixNano()
	prev := j.lastStepNS.Swap(now)
	j.subMu.Lock()
	n := len(j.subs)
	j.subMu.Unlock()
	if n == 0 {
		return
	}
	ev := StreamEvent{Job: j.id, Step: step, Loss: loss, State: StateRunning}
	if prev != 0 {
		ev.StepNS = now - prev
	}
	if raw, held, ok := j.tel.LastMemTotals(); ok {
		ev.RawBytes, ev.HeldBytes = raw, held
		if held > 0 {
			ev.Ratio = float64(raw) / float64(held)
		}
	}
	j.subMu.Lock()
	for sub := range j.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			s.sseDropped.Inc()
		}
	}
	j.subMu.Unlock()
}
