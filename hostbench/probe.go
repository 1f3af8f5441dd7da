package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"time"

	"prema/internal/substrate"
)

// op names one observed Endpoint method.
type op uint8

const (
	opSend op = iota
	// Poll group: non-blocking inbox inspection.
	opTryRecv
	opTryRecvTag
	opHasMsg
	opInboxLen
	// Blocking group: calls that consume time or wait, and so may hand the
	// thread of control to another processor.
	opAdvance
	opRecv
	opWaitMsg
	opWaitMsgFor
	numOps
)

var opNames = [numOps]string{
	"send", "try_recv", "try_recv_tag", "has_msg", "inbox_len",
	"advance", "recv", "wait_msg", "wait_msg_for",
}

func (o op) poll() bool     { return o >= opTryRecv && o <= opInboxLen }
func (o op) blocking() bool { return o >= opAdvance }

// probe decorates a substrate.Machine from outside the program. It always
// stamps the moment Run is entered, which splits a run into set-up (workload
// generation, machine construction, Spawn) and the measured phase. With
// spans on, it also wraps every endpoint and records one span per
// message-moving or time-consuming Endpoint call (the accessors ID, Name,
// NumPeers, Now, Rand, Account and Charge pass straight through and count as
// processor-body time).
//
// The probe is observational: it charges no substrate time and consumes no
// random numbers, so a probed simulator run reports exactly what an
// unprobed one does.
type probe struct {
	inner substrate.Machine
	epoch time.Time
	// stopBeforeRun turns Run into a set-up probe: the inner machine is
	// stopped before it runs, so its processors are torn down unstarted.
	stopBeforeRun bool
	spans         bool
	// serial marks a machine whose processors never run concurrently (the
	// simulator's serial engine). Only then is the global timeline below
	// well defined, and only then is it kept.
	serial bool

	runStart, runEnd int64 // ns since epoch
	recs             []*spanRec
	tl               timeline
}

var _ substrate.Machine = (*probe)(nil)

// newProbe wraps m. Set-up time is measured from epoch, which the caller
// takes before generating the workload.
func newProbe(epoch time.Time, m substrate.Machine, spans, serial bool) *probe {
	return &probe{inner: m, epoch: epoch, spans: spans, serial: serial}
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// setup returns the host time from the epoch to the start of Run.
func (p *probe) setup() time.Duration { return time.Duration(p.runStart) }

// wall returns the host time Run took.
func (p *probe) wall() time.Duration { return time.Duration(p.runEnd - p.runStart) }

// Spawn implements substrate.Machine.
func (p *probe) Spawn(name string, body func(substrate.Endpoint)) {
	if !p.spans {
		p.inner.Spawn(name, body)
		return
	}
	rec := &spanRec{proc: len(p.recs)}
	p.recs = append(p.recs, rec)
	p.inner.Spawn(name, func(ep substrate.Endpoint) {
		e := &probeEndpoint{inner: ep, p: p, rec: rec}
		e.mark(evBodyStart, 0)
		body(e)
		e.mark(evBodyEnd, 0)
	})
}

// Run implements substrate.Machine.
func (p *probe) Run() error {
	p.runStart = p.now()
	p.tl.last = p.runStart
	p.tl.lastProc = -1
	if p.stopBeforeRun {
		p.inner.Stop()
	}
	err := p.inner.Run()
	p.runEnd = p.now()
	if p.serial {
		p.tl.engine += p.runEnd - p.tl.last
	}
	return err
}

// Stop implements substrate.Machine.
func (p *probe) Stop() { p.inner.Stop() }

// NumProcs implements substrate.Machine.
func (p *probe) NumProcs() int { return p.inner.NumProcs() }

// Now implements substrate.Machine.
func (p *probe) Now() substrate.Time { return p.inner.Now() }

// Makespan implements substrate.Machine.
func (p *probe) Makespan() substrate.Time { return p.inner.Makespan() }

// Account implements substrate.Machine.
func (p *probe) Account(i int) *substrate.Account { return p.inner.Account(i) }

// Unwrap exposes the decorated machine, so the bench drivers still reach the
// engine and wire telemetry behind the probe.
func (p *probe) Unwrap() substrate.Machine { return p.inner }

// event kinds on a processor's timeline.
type evKind uint8

const (
	evBodyStart evKind = iota
	evBodyEnd
	evEnter
	evExit
)

// timeline classifies every nanosecond of a serial run's Run phase. Events
// from all processors arrive in one total order (only one processor body or
// the event loop holds the thread at a time), so the interval between two
// consecutive events belongs to exactly one of four bins:
//
//   - body: the same processor returned from a call (or started) and then
//     entered its next call (or finished) — host time in PREMA code;
//   - send / poll: the same processor entered a Send or poll-group call and
//     returned from it with no other event between — a call that did not
//     give up the thread;
//   - engine: everything else — event loop, heap, goroutine handoff, and
//     blocking calls. A Send or poll that yields while no other processor
//     runs before it resumes is counted as send or poll time.
//
// The bins sum to the Run wall time by construction.
type timeline struct {
	last     int64
	lastProc int
	lastKind evKind
	lastOp   op
	body     int64
	send     int64
	poll     int64
	engine   int64
}

func (t *timeline) observe(proc int, kind evKind, o op, at int64) {
	d := at - t.last
	switch {
	case t.lastProc != proc:
		t.engine += d
	case (t.lastKind == evExit || t.lastKind == evBodyStart) && (kind == evEnter || kind == evBodyEnd):
		t.body += d
	case t.lastKind == evEnter && kind == evExit && t.lastOp == o && o == opSend:
		t.send += d
	case t.lastKind == evEnter && kind == evExit && t.lastOp == o && o.poll():
		t.poll += d
	default:
		t.engine += d
	}
	t.last, t.lastProc, t.lastKind, t.lastOp = at, proc, kind, o
}

// spanRec is one processor's span log and per-op totals. Only the
// processor's own body writes it; it is read after Run returns.
type spanRec struct {
	proc   int
	body   int64 // ns between calls, inside the processor body
	calls  [numOps]int64
	ns     [numOps]int64
	last   int64 // last event time, for body gaps and delta encoding
	inBody bool
	// log holds one span per call: op byte, then uvarint start-minus-previous
	// event and uvarint duration, in ns. Delta-encoded because a figure run
	// makes ~16M calls.
	log []byte
}

// probeEndpoint is the span-recording view of one processor's endpoint.
type probeEndpoint struct {
	inner substrate.Endpoint
	p     *probe
	rec   *spanRec
	enter int64
}

var _ substrate.Endpoint = (*probeEndpoint)(nil)

// mark records a body boundary.
func (e *probeEndpoint) mark(kind evKind, o op) {
	t := e.p.now()
	r := e.rec
	if kind == evBodyEnd && r.inBody {
		r.body += t - r.last
	}
	r.inBody = kind == evBodyStart
	r.last = t
	if e.p.serial {
		e.p.tl.observe(r.proc, kind, o, t)
	}
}

func (e *probeEndpoint) begin(o op) {
	t := e.p.now()
	r := e.rec
	if r.inBody {
		r.body += t - r.last
	}
	r.inBody = false
	e.enter = t
	if e.p.serial {
		e.p.tl.observe(r.proc, evEnter, o, t)
	}
}

func (e *probeEndpoint) end(o op) {
	t := e.p.now()
	r := e.rec
	r.calls[o]++
	r.ns[o] += t - e.enter
	r.log = append(r.log, byte(o))
	r.log = binary.AppendUvarint(r.log, uint64(e.enter-r.last))
	r.log = binary.AppendUvarint(r.log, uint64(t-e.enter))
	r.last = t
	r.inBody = true
	if e.p.serial {
		e.p.tl.observe(r.proc, evExit, o, t)
	}
}

func (e *probeEndpoint) ID() int                                         { return e.inner.ID() }
func (e *probeEndpoint) Name() string                                    { return e.inner.Name() }
func (e *probeEndpoint) NumPeers() int                                   { return e.inner.NumPeers() }
func (e *probeEndpoint) Now() substrate.Time                             { return e.inner.Now() }
func (e *probeEndpoint) Rand() *rand.Rand                                { return e.inner.Rand() }
func (e *probeEndpoint) Account() *substrate.Account                     { return e.inner.Account() }
func (e *probeEndpoint) Charge(cat substrate.Category, d substrate.Time) { e.inner.Charge(cat, d) }

func (e *probeEndpoint) Advance(d substrate.Time, cat substrate.Category) {
	e.begin(opAdvance)
	e.inner.Advance(d, cat)
	e.end(opAdvance)
}

func (e *probeEndpoint) Send(m *substrate.Msg, cat substrate.Category) {
	e.begin(opSend)
	e.inner.Send(m, cat)
	e.end(opSend)
}

func (e *probeEndpoint) InboxLen() int {
	e.begin(opInboxLen)
	n := e.inner.InboxLen()
	e.end(opInboxLen)
	return n
}

func (e *probeEndpoint) HasMsg(tag int) bool {
	e.begin(opHasMsg)
	ok := e.inner.HasMsg(tag)
	e.end(opHasMsg)
	return ok
}

func (e *probeEndpoint) TryRecv(cat substrate.Category) *substrate.Msg {
	e.begin(opTryRecv)
	m := e.inner.TryRecv(cat)
	e.end(opTryRecv)
	return m
}

func (e *probeEndpoint) TryRecvTag(tag int, cat substrate.Category) *substrate.Msg {
	e.begin(opTryRecvTag)
	m := e.inner.TryRecvTag(tag, cat)
	e.end(opTryRecvTag)
	return m
}

func (e *probeEndpoint) Recv(waitCat substrate.Category) *substrate.Msg {
	e.begin(opRecv)
	m := e.inner.Recv(waitCat)
	e.end(opRecv)
	return m
}

func (e *probeEndpoint) WaitMsg(cat substrate.Category) {
	e.begin(opWaitMsg)
	e.inner.WaitMsg(cat)
	e.end(opWaitMsg)
}

func (e *probeEndpoint) WaitMsgFor(d substrate.Time, cat substrate.Category) bool {
	e.begin(opWaitMsgFor)
	ok := e.inner.WaitMsgFor(d, cat)
	e.end(opWaitMsgFor)
	return ok
}

// split is a probed run's host time by layer, summed over processors.
type split struct {
	wall      time.Duration // Run wall time
	body      time.Duration // processor bodies between calls
	send      time.Duration // Send calls
	poll      time.Duration // poll-group calls
	engine    time.Duration // serial runs only: wall - body - send - poll
	calls     [numOps]int64
	blocked   int64 // returned blocking-group calls
	spanBytes int
}

// split totals the per-processor records. On a serial run the body, send
// and poll bins come from the global timeline, so engine closes the sum to
// the wall time exactly; on a concurrent run they are per-processor sums
// (which may exceed the wall time) and engine is zero.
func (p *probe) split() split {
	s := split{wall: p.wall()}
	for _, r := range p.recs {
		for o := op(0); o < numOps; o++ {
			s.calls[o] += r.calls[o]
			switch {
			case o == opSend:
				s.send += time.Duration(r.ns[o])
			case o.poll():
				s.poll += time.Duration(r.ns[o])
			case o.blocking():
				s.blocked += r.calls[o]
			}
		}
		s.body += time.Duration(r.body)
		s.spanBytes += len(r.log)
	}
	if p.serial {
		s.body = time.Duration(p.tl.body)
		s.send = time.Duration(p.tl.send)
		s.poll = time.Duration(p.tl.poll)
		s.engine = time.Duration(p.tl.engine)
	}
	return s
}

// add accumulates another node's split of the same run (wall excluded).
func (s *split) add(o split) {
	s.body += o.body
	s.send += o.send
	s.poll += o.poll
	s.engine += o.engine
	s.blocked += o.blocked
	s.spanBytes += o.spanBytes
	for i := range s.calls {
		s.calls[i] += o.calls[i]
	}
}

func (s split) pollCalls() int64 {
	var n int64
	for o := op(0); o < numOps; o++ {
		if o.poll() {
			n += s.calls[o]
		}
	}
	return n
}

// writeSpans writes every processor's span log to path: a header line
// naming the format, then per processor a uvarint processor id, a uvarint
// byte length and the log itself.
func (p *probe) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "hostbench-spans v1 ops=%v; per span: op byte, uvarint ns since previous event, uvarint ns duration\n", opNames)
	for _, r := range p.recs {
		w.Write(binary.AppendUvarint(nil, uint64(r.proc)))
		w.Write(binary.AppendUvarint(nil, uint64(len(r.log))))
		w.Write(r.log)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
