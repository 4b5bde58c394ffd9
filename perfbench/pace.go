package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes an open-loop connection at an arrival's due time.  It
// waits on a Linux timerfd read through the runtime's network poller,
// so a waiting connection holds no scheduler slot and wakes within
// tens of µs of the due time.  time.Sleep wakes 0.6–1 ms late on small
// sleeps (its poller timeout has millisecond resolution), several
// times a served cache hit; a raw nanosleep keeps the goroutine's
// processor blocked in the syscall, stalling the server it shares it
// with.
type pacer struct {
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) Close() error { return p.f.Close() }

// sleepUntil blocks until t and reports how late it returned.
func (p *pacer) sleepUntil(t time.Time) (time.Duration, error) {
	if d := time.Until(t); d > 0 {
		// struct itimerspec{it_interval, it_value}, relative expiry.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		sc, err := p.f.SyscallConn()
		if err != nil {
			return 0, err
		}
		var errno syscall.Errno
		if err := sc.Control(func(fd uintptr) {
			_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
				uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		}); err != nil {
			return 0, err
		}
		if errno != 0 {
			return 0, os.NewSyscallError("timerfd_settime", errno)
		}
		if _, err := p.f.Read(p.buf[:]); err != nil {
			return 0, err
		}
	}
	return max(time.Since(t), 0), nil
}
