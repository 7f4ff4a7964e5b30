package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// repOutcome is what the parent learns from one child rep.
type repOutcome struct {
	// Done holds the "done" event of every point that finished, by index.
	Done map[int]event
	// End is the child's closing event; nil if it never arrived.
	End *repEnd
	// Hung is non-nil once the child was declared stuck: it lists the
	// points still running when one exceeded the bound (none when the
	// child went silent between points), and Dump is the child's
	// goroutine dump taken then.
	Hung []int
	Dump string
	// MaxRSSKiB is the child's peak resident set.
	MaxRSSKiB int64
	// Err reports a child that failed to start, crashed, or broke the
	// event protocol.
	Err error
}

// superviseRep runs a child rep and enforces the per-point wall bound:
// when a point has run longer than bound, the child gets SIGQUIT (the Go
// runtime prints every goroutine's stack and exits), then SIGKILL if it
// is still there after grace. The function returns once the child has
// exited and its output is drained.
func superviseRep(cmd *exec.Cmd, bound, grace time.Duration) repOutcome {
	out := repOutcome{Done: make(map[int]event)}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		out.Err = err
		return out
	}
	if err := cmd.Start(); err != nil {
		out.Err = err
		return out
	}
	events := make(chan event)
	readErr := make(chan error, 1)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 256<<20)
		for sc.Scan() {
			var ev event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				readErr <- fmt.Errorf("bad event line %q: %w", truncate(sc.Text(), 200), err)
				return
			}
			events <- ev
		}
		readErr <- sc.Err()
	}()

	running := make(map[int]time.Time)
	lastEvent := time.Now()
	tick := time.NewTicker(min(bound/4, 250*time.Millisecond))
	defer tick.Stop()
	var killAt time.Time
	for events != nil {
		select {
		case ev, ok := <-events:
			if !ok {
				events = nil
				continue
			}
			lastEvent = time.Now()
			switch ev.Kind {
			case "start":
				running[ev.Index] = time.Now()
			case "done":
				delete(running, ev.Index)
				out.Done[ev.Index] = ev
			case "end":
				out.End = ev.End
			}
		case now := <-tick.C:
			if out.Hung == nil {
				// A child silent for a whole bound with no point running is
				// stuck outside the points.
				stuck := len(running) == 0 && now.Sub(lastEvent) > bound
				for _, since := range running {
					stuck = stuck || now.Sub(since) > bound
				}
				if stuck {
					out.Hung = sortedKeys(running)
					_ = cmd.Process.Signal(syscall.SIGQUIT) // the exit is awaited below
					killAt = now.Add(grace)
				}
			} else if now.After(killAt) {
				_ = cmd.Process.Kill() // the exit is awaited below
			}
		}
	}
	// The reader sends its verdict before closing events. A child that
	// broke the protocol may still be writing; kill it so Wait returns.
	protoErr := <-readErr
	if protoErr != nil {
		_ = cmd.Process.Kill()
	}
	waitErr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.MaxRSSKiB = ru.Maxrss
	}
	switch {
	case out.Hung != nil:
		out.Dump = stderr.String()
	case protoErr != nil:
		out.Err = protoErr
	case waitErr != nil:
		out.Err = fmt.Errorf("child: %w: %s", waitErr, truncate(stderr.String(), 2000))
	case out.End == nil:
		out.Err = fmt.Errorf("child exited without an end event: %s", truncate(stderr.String(), 2000))
	}
	return out
}

func sortedKeys(m map[int]time.Time) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
