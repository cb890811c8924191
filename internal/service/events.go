package service

import "sync"

// Broadcaster fans a job's events out to any number of subscribers without
// ever blocking the publishing (executing) goroutine. bmmcd's jobs and the
// cluster coordinator's striped jobs each publish through one. Each
// subscriber owns
// a small coalescing queue: state events are all kept, in order (the
// lifecycle is short and monotonic, so this is bounded), while progress
// events collapse to the most recent one — a slow consumer sees a sampled
// progress stream but never misses a state transition.
type Broadcaster struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

// NewBroadcaster returns an open broadcaster with no subscribers.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[*subscriber]struct{})}
}

type subscriber struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Event // pending events in publish order
	progIdx int     // index of the pending progress event in queue, -1 if none
	done    bool    // no further events: stream closed or consumer canceled

	ch   chan Event
	quit chan struct{}
	once sync.Once
}

// Subscribe registers a new subscriber and returns its channel plus an
// idempotent cancel. The channel closes after all pending events drain
// once the stream ends (or immediately if the job is already terminal and
// the stream closed).
func (b *Broadcaster) Subscribe() (<-chan Event, func()) {
	s := &subscriber{ch: make(chan Event), quit: make(chan struct{}), progIdx: -1}
	s.cond = sync.NewCond(&s.mu)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(s.ch)
		return s.ch, func() {}
	}
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	go s.pump()
	cancel := func() {
		b.mu.Lock()
		delete(b.subs, s)
		b.mu.Unlock()
		s.finish()
		s.once.Do(func() { close(s.quit) })
	}
	return s.ch, cancel
}

// Publish delivers ev to every subscriber's queue. Never blocks.
func (b *Broadcaster) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for s := range b.subs {
		s.push(ev)
	}
}

// Close ends the stream: every subscriber drains its pending events and
// then its channel closes. Publishing after close is a no-op.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		s.finish()
	}
	b.subs = nil
}

// push appends a state event, or coalesces a progress event into the one
// already pending (updating its payload in place, keeping its position in
// the order). The queue stays bounded: at most one progress event plus the
// handful of lifecycle states.
func (s *subscriber) push(ev Event) {
	s.mu.Lock()
	if !s.done {
		if ev.Type == EventProgress && s.progIdx >= 0 {
			s.queue[s.progIdx] = ev
		} else {
			if ev.Type == EventProgress {
				s.progIdx = len(s.queue)
			}
			s.queue = append(s.queue, ev)
		}
	}
	s.cond.Signal()
	s.mu.Unlock()
}

func (s *subscriber) finish() {
	s.mu.Lock()
	s.done = true
	s.cond.Signal()
	s.mu.Unlock()
}

// pump moves queued events onto the subscriber's channel in order and
// closes the channel once the stream has ended and the queue is drained.
func (s *subscriber) pump() {
	defer close(s.ch)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.done {
			s.cond.Wait()
		}
		if len(s.queue) == 0 { // done and drained
			s.mu.Unlock()
			return
		}
		ev := s.queue[0]
		s.queue = s.queue[1:]
		switch {
		case s.progIdx == 0:
			s.progIdx = -1
		case s.progIdx > 0:
			s.progIdx--
		}
		s.mu.Unlock()
		select {
		case s.ch <- ev:
		case <-s.quit:
			return
		}
	}
}
