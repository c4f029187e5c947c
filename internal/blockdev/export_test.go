package blockdev

// Outstanding reports requests currently at the backend.
func (s *Scheduler) Outstanding() int { return len(s.active) }

// Waiting reports deferred requests.
func (s *Scheduler) Waiting() int { return len(s.waiting) }
