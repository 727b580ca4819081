package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was tuned on is a shared virtual machine whose
// speed drifts by 5–10% from one minute to the next, CPU time included, so
// two runs of the same code minutes apart disagree by more than the bounds
// allow. Every run therefore times a fixed reference kernel, which shares
// no code with the program, every refEvery through its timed window, and
// reports each op's CPU time in multiples of the kernel's: a same-run
// baseline that moves with the host and not with the program.
const refEvery = 250 * time.Millisecond

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which the syscall
// package does not name. getrusage(RUSAGE_THREAD) would be simpler, but
// Linux reports it at scheduler-tick resolution.
const clockThreadCPUTime = 3

var refSink uint64 // keeps the kernel's result alive

// refKernel is about 2 ms of integer, table and floating-point work on a
// 32 KB table: the kinds of work the simulator's hot loops do.
func refKernel() uint64 {
	var tab [8192]uint32
	x := uint32(2463534242)
	v, acc := 0.0, 0.0
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		tab[x&8191] += x
		v += (3.0 - v) * 1e-4
		acc += v * float64(tab[(x>>7)&8191]&255)
	}
	return uint64(acc)
}

// refCPU runs the reference kernel once and returns the CPU time of the
// thread that ran it, so that the garbage collector and the in-process
// daemons working on other threads do not count.
func refCPU() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	refSink += refKernel()
	return threadCPU() - t0
}

func threadCPU() time.Duration {
	var ts syscall.Timespec
	// Cannot fail: the clock exists and ts is writable.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
