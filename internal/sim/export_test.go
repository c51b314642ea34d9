package sim

import "fmt"

// HeadMismatch reports the first message whose cached head index differs
// from a scan of its queue, or nil when every cache is right.
func HeadMismatch(s *Sim) error {
	for i := range s.msgs {
		m := &s.msgs[i]
		if h := s.scanHead(m); m.head != h {
			return fmt.Errorf("m%d caches head %d, but its queue %v puts the head at %d", i, m.head, s.queue(m), h)
		}
	}
	return nil
}

// LiveMessages returns the number of messages not yet delivered, without
// scanning them: the live counter AllDelivered reads.
func (s *Sim) LiveMessages() int { return s.liveCount }
