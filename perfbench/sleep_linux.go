package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a timerfd through the runtime's netpoller. net_open's
// arrivals are a few hundred microseconds apart, and time.Sleep on Linux
// wakes up to a millisecond late; a timerfd wakes within tens of
// microseconds without pinning a thread.
type sleeper struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	// A non-blocking descriptor is registered with the netpoller, so a
	// Read parks the goroutine rather than its thread.
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks for d (d > 0).
func (s *sleeper) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(max(d, time.Microsecond)))}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("timerfd_settime: %w", e)
	}
	if _, err := s.f.Read(s.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (s *sleeper) close() { s.f.Close() }
