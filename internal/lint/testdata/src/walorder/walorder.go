// Package walorder exercises the apply->append->reply ordering check
// at journaling sites: an applied request must hit the WAL before its
// reply is sent, with error-branch and nil-journal replies exempt.
package walorder

// Engine is the applied state. An Engine is not safe for concurrent
// use; the service loop owns it.
type Engine struct{ n int }

// Apply mutates the engine.
func (e *Engine) Apply(x int) error {
	e.n += x
	return nil
}

// Journal is the write-ahead log.
type Journal struct{ recs []int }

// Append journals one record.
func (j *Journal) Append(x int) error {
	j.recs = append(j.recs, x)
	return nil
}

// request carries a reply channel.
type request struct {
	x     int
	reply chan error
}

// Server owns the engine and an optional journal.
type Server struct {
	eng     *Engine
	journal *Journal
}

// HandleGood follows the contract: apply, then append, then reply.
// The error replies and the nil-journal reply are the protocol, not
// violations.
func (s *Server) HandleGood(r request) {
	if err := s.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	if s.journal == nil {
		r.reply <- nil
		return
	}
	if err := s.journal.Append(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil
}

// HandleBad acknowledges before the append: after a crash the log
// cannot replay the state the client was told is durable.
func (s *Server) HandleBad(r request) {
	if err := s.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil // want "walorder: reply sent before WAL append"
	_ = s.journal.Append(r.x)
}

// HandleBadHelper hides the premature reply behind a helper; the
// bounded inlining still sees it.
func (s *Server) HandleBadHelper(r request) {
	if err := s.eng.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	s.ack(r)
	_ = s.journal.Append(r.x)
}

// ack replies on the request's channel.
func (s *Server) ack(r request) {
	r.reply <- nil // want "walorder: reply sent before WAL append"
}

// Applied reads the engine's state (non-mutating).
func (e *Engine) Applied() int { return e.n }

// backend is the apply contract a loop holds its engine behind. Only
// the guarded Engine implements it, so Apply through it is still the
// apply step.
type backend interface {
	Apply(x int) error
	Applied() int
}

// Loop is the server written over any backend: no call site in it
// names the guarded type.
type Loop struct {
	be      backend
	journal *Journal
}

// NewEngineLoop wires a fresh engine to a loop.
func NewEngineLoop(j *Journal) *Loop {
	return &Loop{be: &Engine{}, journal: j}
}

// HandleGood follows the contract through the interface field.
func (l *Loop) HandleGood(r request) {
	if err := l.be.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	if l.journal == nil {
		r.reply <- nil
		return
	}
	if err := l.journal.Append(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil
}

// HandleBad acknowledges before the append. The apply is an interface
// call; the analyzer resolves it to the guarded implementer.
func (l *Loop) HandleBad(r request) {
	if err := l.be.Apply(r.x); err != nil {
		r.reply <- err
		return
	}
	r.reply <- nil // want "walorder: reply sent before WAL append"
	_ = l.journal.Append(r.x)
}
