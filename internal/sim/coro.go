//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// start builds p's coroutine. The shard calls it on p's first transfer (its
// spawn-time evTransfer), so a processor that never runs never creates one.
// The coroutine function is the processor's whole life: it runs the body,
// swallows the teardown kill (errKilled), records the first other panic on
// the shard, and marks p done. p.resume switches into it until the body
// parks (Proc.yield calls p.suspend) or returns. The coroutine always runs
// to completion — teardown resumes every blocked processor with killed set —
// so iter.Pull's stop function is never needed.
func (p *Proc) start() {
	s := p.sh
	p.resume, _ = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r == errKilled {
						return
					}
					if s.err == nil {
						s.err = fmt.Errorf("sim: processor %q panicked: %v\n%s", p.name, r, debug.Stack())
					}
				}
			}()
			p.body(p)
		}()
		p.done = true
		p.finishedAt = s.now
	})
}
