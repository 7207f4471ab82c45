//go:build go1.23

package sim

import "iter"

// newCoroutine starts body as a coroutine: next runs it up to its next yield
// (reporting false once body has returned), stop makes a pending yield report
// false — or keeps a body that never started from starting — and returns when
// body has. Both switch to the coroutine and back on the calling thread, with
// no scheduler in between. This is iter.Pull, and the file exists to hold
// that one call: iter needs go1.23, the module's go directive stays at 1.22
// (DESIGN.md §7), and the build constraint above raises the language version
// for this file alone.
func newCoroutine(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
