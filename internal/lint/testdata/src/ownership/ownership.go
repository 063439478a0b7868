// Package ownership exercises the single-owner goroutine analysis:
// guarded values may be mutated during construction and by the one
// goroutine that owns them after Start, and by nothing else.
package ownership

// Core is the guarded state machine. A Core is not safe for
// concurrent use: after Start, one goroutine owns it.
type Core struct {
	round int
	done  bool
}

// Step advances the core (mutating).
func (c *Core) Step() { c.round++ }

// Finish marks the core done (mutating).
func (c *Core) Finish() { c.done = true }

// Round reads the current round (non-mutating).
func (c *Core) Round() int { return c.round }

// Server fronts a Core with one owning run loop.
type Server struct {
	core *Core
	reqs chan int
	stop chan struct{}
}

// NewServer builds a server and steps the core once during setup:
// construction happens-before the launch, so this is legal.
func NewServer() *Server {
	s := &Server{core: &Core{}, reqs: make(chan int, 1), stop: make(chan struct{})}
	s.core.Step()
	return s
}

// Start launches the owning goroutine.
func (s *Server) Start() { go s.run() }

// run is the owner loop: its mutations are the legal ones.
func (s *Server) run() {
	for {
		select {
		case <-s.reqs:
			s.core.Step()
		case <-s.stop:
			s.core.Finish()
			return
		}
	}
}

// Poke mutates the core from the exported API while the run loop owns
// it: the violation this analyzer exists to catch.
func (s *Server) Poke() {
	s.core.Step() // want "ownership: .*mutates single-owner Core outside its owning goroutine"
}

// Reset writes a guarded field directly from the API: the same
// violation through a field store instead of a method call.
func (s *Server) Reset() {
	s.core.round = 0 // want "ownership: .*mutates single-owner Core outside its owning goroutine"
}

// Peek only reads; read races are the race detector's department.
func (s *Server) Peek() int { return s.core.Round() }

// FanOut launches one goroutine per iteration that all mutate a core
// captured from outside the loop: N owners for one value.
func FanOut(c *Core, n int) {
	for i := 0; i < n; i++ {
		go func() {
			c.Step() // want "ownership: goroutine launched in a loop mutates single-owner Core"
		}()
	}
}

// FanOutFresh gives every goroutine its own per-iteration core:
// loop variables are one value per iteration, so each goroutine owns
// what it mutates.
func FanOutFresh(cores []*Core) {
	for _, c := range cores {
		go func() {
			c.Step()
		}()
	}
}

// Progress reads the core's state (non-mutating).
func (c *Core) Progress() int { return c.round }

// Shard is a second guarded backend. A Shard is not safe for
// concurrent use: after Start, one goroutine owns it.
type Shard struct{ steps int }

// Step advances the shard (mutating).
func (s *Shard) Step() { s.steps++ }

// Progress reads the shard's state (non-mutating).
func (s *Shard) Progress() int { return s.steps }

// backend is the step contract Core and Shard share. Only guarded types
// implement it, so a call through it mutates single-owner state even
// though no call site names a guarded type.
type backend interface {
	Step()
	Progress() int
}

// Owner is the run loop written once over either backend, which it
// holds behind an interface-typed field.
type Owner struct {
	be   backend
	reqs chan int
}

// NewCoreOwner wires a fresh core to an inert owner.
func NewCoreOwner() *Owner {
	return &Owner{be: &Core{}, reqs: make(chan int, 1)}
}

// Start launches the owning goroutine.
func (o *Owner) Start() { go o.run() }

// run is the owner loop: stepping the backend here is legal.
func (o *Owner) run() {
	for range o.reqs {
		o.be.Step()
	}
}

// Poke steps the backend from the exported API while the run loop
// owns it. The callee is an interface method; the analyzer resolves it
// to the guarded implementers.
func (o *Owner) Poke() {
	o.be.Step() // want "ownership: .*mutates single-owner (Core|Shard) outside its owning goroutine"
}

// Peek only reads through the interface.
func (o *Owner) Peek() int { return o.be.Progress() }
