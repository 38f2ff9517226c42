package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is the open-loop generator's clock: a periodic Linux timerfd read
// through the runtime's network poller. A parked read holds no processor
// and wakes within tens of microseconds of the tick. The portable
// alternatives both break a 200 µs schedule in a GOMAXPROCS=2 process:
// time.Sleep overshoots by up to a millisecond when the process is otherwise
// idle (the poller's timeout has millisecond granularity), and a
// runtime.Gosched spin keeps the run queue non-empty, so the scheduler never
// polls the network and the server's sockets wait for sysmon's 10 ms sweep.
type pacer struct {
	f     *os.File
	start time.Time // tick k fires at start + k·interval (within the cost of one syscall)
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // O_NONBLOCK: lets os.NewFile hand the descriptor to the poller
	tfdCloexec     = 0x80000 // O_CLOEXEC
)

// newPacer starts the ticks now + offset: generators created together with
// offsets spread over one interval keep that phase for the whole run (their
// timers share a clock), instead of a phase that differs from run to run.
func newPacer(interval, offset time.Duration) (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	spec := struct{ interval, value syscall.Timespec }{
		syscall.NsecToTimespec(int64(interval)), syscall.NsecToTimespec(int64(interval + offset)),
	}
	start := time.Now().Add(offset)
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), start: start}, nil
}

// tick blocks until at least one tick has fired since the last call.
func (p *pacer) tick() error {
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
