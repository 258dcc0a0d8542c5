//go:build !linux

package preemptible

// lowerThreadPriority is a no-op where per-thread priority has no
// portable call; BE contexts still run on their own locked threads.
func lowerThreadPriority() {}
