package preemptible

import "syscall"

// beNice is the nice value of a BE context's thread: the lowest
// priority an unprivileged process may set.
const beNice = 19

// lowerThreadPriority sets the calling OS thread — one thread, by its
// tid, not the process — to beNice. The caller must be locked to its
// thread. A refusal (a sandbox that filters the call) only leaves the
// thread at the process's priority, which is where it was, so the error
// is dropped.
func lowerThreadPriority() {
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), beNice)
}
