//go:build go1.23

package sim

import (
	"iter"
	"slices"
)

// Proc is a cooperative simulated thread: a coroutine that runs only while
// the engine has resumed it. Procs model application processes, POSIX
// threads, OS kernel threads, and NI firmware loops. A Proc may touch
// simulated state freely while running; it relinquishes control by sleeping
// or blocking on a Cond.
type Proc struct {
	e    *Engine
	name string
	// The body runs inside iter.Pull: next resumes it until it yields (or
	// reports that it has returned), yieldFn hands control back to the
	// caller of next, and stop unwinds a parked body.
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool
	done    bool
	killed  bool
	// waiting and waitGen track the Cond the proc is parked on so a
	// timeout can cancel exactly the wait it was armed for.
	waiting *Cond
	waitGen uint64
	// resumeT is the proc's reusable wakeup timer: every Sleep, Yield,
	// Signal and spawn kick re-arms it instead of allocating a closure.
	resumeT *Timer
	// tmoT is the reusable WaitTimeout timer (created on first use);
	// tmoGen records the waitGen it was armed for and timedOut carries the
	// verdict back to the waiter.
	tmoT     *Timer
	tmoGen   uint64
	timedOut bool
}

type procKilled struct{}

// Spawn creates a simulated thread that begins executing fn at the current
// virtual time (after already-queued events at this time).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
		}()
		fn(p)
	})
	p.resumeT = e.NewTimer(func() { e.runProc(p) })
	e.procs = append(e.procs, p)
	p.resumeT.Reset(0)
	return p
}

// Kill terminates a parked proc immediately, from event context or from
// another proc: its body unwinds before Kill returns, running no further
// simulated work (crash semantics — only the body's deferred calls run). A
// proc killed before its first resume never runs at all. Any Cond
// registration is removed so signals are not wasted on the corpse. Killing
// the currently running proc is not allowed.
func (p *Proc) Kill() {
	if p.done {
		return
	}
	if p.e.cur == p {
		panic("sim: Kill of the running proc")
	}
	p.halt()
}

// halt marks a parked proc killed and done and unwinds its body.
func (p *Proc) halt() {
	if p.waiting != nil {
		p.waiting.remove(p)
		p.waiting = nil
	}
	p.killed = true
	p.done = true
	p.stop()
}

// Killed reports whether the proc was terminated by Kill or Shutdown.
func (p *Proc) Killed() bool { return p.killed }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// Done reports whether the proc has finished.
func (p *Proc) Done() bool { return p.done }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.Now() }

// yield parks the proc's body and returns control to the event that
// resumed it. It returns when a later event resumes the proc, or unwinds the
// body when the proc is killed while parked.
func (p *Proc) yield() {
	if !p.yieldFn(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.resumeT.Reset(d)
	p.yield()
}

// Yield lets other events and procs scheduled at the current time run.
func (p *Proc) Yield() { p.Sleep(0) }

// Cond is a condition-variable analogue for simulated threads. Waiters are
// woken in FIFO order. A zero Cond bound with NewCond is ready to use.
type Cond struct {
	e       *Engine
	waiters []*Proc
}

// NewCond returns a condition variable on engine e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait parks p until another activity calls Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.waiting = c
	p.waitGen++
	p.yield()
	p.waiting = nil
}

// WaitTimeout parks p until a signal or until d elapses. It reports whether
// the proc was signalled (true) or timed out (false). The timeout timer is
// per-proc and reusable: the wait arms it with Reset and disarms it on wake,
// so repeated timed waits allocate nothing.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	if p.tmoT == nil {
		p.tmoT = p.e.NewTimer(func() {
			// waitGen identifies the exact wait this arm belongs to, so a
			// stale firing (the waiter was signalled and has moved on)
			// does nothing.
			if p.waiting != nil && p.waitGen == p.tmoGen {
				p.waiting.remove(p)
				p.waiting = nil
				p.timedOut = true
				p.e.runProc(p)
			}
		})
	}
	c.waiters = append(c.waiters, p)
	p.waiting = c
	p.waitGen++
	p.tmoGen = p.waitGen
	p.timedOut = false
	p.tmoT.Reset(d)
	p.yield()
	p.waiting = nil
	p.tmoT.Stop()
	return !p.timedOut
}

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = slices.Delete(c.waiters, i, i+1)
			return
		}
	}
}

// Signal wakes the oldest waiter, if any. It reports whether one was woken.
// The waiter resumes via a zero-delay event, after the caller yields. The
// queue shifts down in place, so later Waits append into the same backing
// array instead of reallocating.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	p := c.waiters[0]
	c.waiters = slices.Delete(c.waiters, 0, 1)
	p.waiting = nil
	p.resumeT.Reset(0)
	return true
}

// Broadcast wakes all waiters and reports how many were woken.
func (c *Cond) Broadcast() int {
	n := len(c.waiters)
	for _, p := range c.waiters {
		p.waiting = nil
		p.resumeT.Reset(0)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	return n
}

// Waiters reports the number of procs currently parked on the cond.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Semaphore is a counting semaphore for simulated threads.
type Semaphore struct {
	n    int
	cond *Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	return &Semaphore{n: n, cond: NewCond(e)}
}

// Acquire takes a permit, blocking the proc until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.n == 0 {
		s.cond.Wait(p)
	}
	s.n--
}

// Release returns a permit and wakes one waiter.
func (s *Semaphore) Release() {
	s.n++
	s.cond.Signal()
}

// Available reports the current number of permits.
func (s *Semaphore) Available() int { return s.n }
