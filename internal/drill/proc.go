package drill

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// proc is one managed child process (a geserve replica or the gegate
// front), restartable with identical arguments so an incarnation after a
// SIGKILL is a faithful replacement of the one that died.
type proc struct {
	name   string
	path   string // binary
	args   []string
	stderr *os.File // appended across incarnations

	cmd          *exec.Cmd
	exited       chan struct{} // closed once this incarnation is reaped
	incarnations int
}

func newProc(name, path string, args []string, logPath string) (*proc, error) {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("drill: %s log: %w", name, err)
	}
	return &proc{name: name, path: path, args: args, stderr: f}, nil
}

// start launches (or relaunches) the process. Each start is a new
// incarnation; a reaper goroutine collects the exit status so kills never
// leave zombies, then closes exited, so any number of kill and stop calls
// can wait on the same death. cmd.ProcessState holds the status once
// exited is closed.
func (p *proc) start() error {
	cmd := exec.Command(p.path, p.args...)
	cmd.Stdout = p.stderr
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("drill: starting %s: %w", p.name, err)
	}
	p.cmd = cmd
	p.incarnations++
	exited := make(chan struct{})
	p.exited = exited
	go func() {
		_ = cmd.Wait() // the status lands in cmd.ProcessState
		close(exited)
	}()
	return nil
}

func (p *proc) pid() int {
	if p.cmd == nil || p.cmd.Process == nil {
		return 0
	}
	return p.cmd.Process.Pid
}

// kill SIGKILLs the process and waits for the kernel to reap it: no drain,
// no journal flush — the crash the harness exists to inject.
func (p *proc) kill() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("drill: %s not running", p.name)
	}
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("drill: kill %s: %w", p.name, err)
	}
	<-p.exited // exit status is the signal; the death itself is the point
	return nil
}

// pause SIGSTOPs the process: alive but frozen, the failure mode that
// looks like an infinite GC pause from the outside.
func (p *proc) pause() error {
	if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return fmt.Errorf("drill: pause %s: %w", p.name, err)
	}
	return nil
}

// resume SIGCONTs a paused process.
func (p *proc) resume() error {
	if err := p.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return fmt.Errorf("drill: resume %s: %w", p.name, err)
	}
	return nil
}

// stop asks the process to drain with SIGTERM and escalates to SIGKILL if
// it has not exited within grace.
func (p *proc) stop(grace time.Duration) error {
	if p.cmd == nil || p.cmd.Process == nil {
		return nil
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		// Already gone is fine; anything else still falls through to the
		// bounded wait so we never hang.
		if !isProcessDone(err) {
			return fmt.Errorf("drill: term %s: %w", p.name, err)
		}
	}
	select {
	case <-p.exited:
		return nil
	case <-time.After(grace):
		_ = p.cmd.Process.Signal(syscall.SIGKILL)
		<-p.exited
		return fmt.Errorf("drill: %s ignored SIGTERM for %v; killed", p.name, grace)
	}
}

func (p *proc) close() {
	if p.stderr != nil {
		p.stderr.Close()
	}
}

func isProcessDone(err error) bool {
	return err == os.ErrProcessDone
}

// waitHealthy polls url until it answers 200 or the deadline passes.
func waitHealthy(client *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("drill: %s not healthy after %v: %v", url, timeout, lastErr)
}
