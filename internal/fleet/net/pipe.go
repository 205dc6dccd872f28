package net

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	stdnet "net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// execPrefix marks a Hosts entry served by the pipe transport: "exec:"
// re-executes the current binary, "exec:<path>" runs a built ustaworker.
// Each entry is one worker subprocess speaking the daemon protocol over
// its stdin and stdout.
const execPrefix = "exec:"

// workerEnv marks a process as a pipe worker. The runner sets it on every
// process it spawns; WorkerMain checks it.
const workerEnv = "USTA_SHARD_WORKER"

// crashEnv is a test-only fault injector: a worker exits abruptly (code 3,
// no done frame) right after reporting the job with this global index. The
// failure-path tests use it to simulate a worker crash mid-shard.
const crashEnv = "USTA_SHARD_CRASH_ON_INDEX"

// WorkerMain serves the daemon protocol over stdin/stdout and exits when
// this process was spawned by an "exec:" host; otherwise it is a no-op.
// Call it first thing in main() — before flag parsing — in any binary that
// coordinates "exec:" hosts naming itself (cmd/ustasim does), and in
// TestMain of packages whose tests use them.
func WorkerMain() {
	if os.Getenv(workerEnv) != "1" {
		return
	}
	ServeStdio(context.Background(), nil)
	os.Exit(0)
}

// ServeStdio is the worker end of the pipe transport: a Server speaking
// the daemon protocol (hello, shard frames, heartbeats, cancel) on this
// process's stdin and stdout until the coordinator closes the stream or
// ctx is cancelled. It advertises capacity 1, because the coordinator
// spawns one process per "exec:" entry.
func ServeStdio(ctx context.Context, logf func(format string, args ...any)) {
	s := &Server{Capacity: 1, Logf: logf}
	s.serveConn(ctx, &pipeConn{r: os.Stdin, w: os.Stdout, name: "stdio"})
}

// resolveHosts expands the inventory once per run: each "exec:" entry's
// worker binary is located up front, so a missing one fails the run at
// once instead of after the all-dead deadline.
func resolveHosts(addrs []string) ([]host, error) {
	hosts := make([]host, len(addrs))
	for i, a := range addrs {
		hosts[i] = host{idx: i, addr: a}
		path, ok := strings.CutPrefix(a, execPrefix)
		if !ok {
			continue
		}
		var err error
		if path == "" {
			path, err = os.Executable()
		} else {
			path, err = exec.LookPath(path)
		}
		if err != nil {
			return nil, fmt.Errorf("net: host %s: worker binary: %w", a, err)
		}
		hosts[i].exe = path
	}
	return hosts, nil
}

// spawn starts one worker process and returns the coordinator's end of its
// pipes.
func spawn(exe string) (*pipeConn, error) {
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stdin, cmd.Stdout = inR, outW
	c := &pipeConn{r: outR, w: inW, name: execPrefix + exe, cmd: cmd}
	cmd.Stderr = &c.stderr
	err = cmd.Start()
	inR.Close()
	outW.Close()
	if err != nil {
		outR.Close()
		inW.Close()
		return nil, fmt.Errorf("start worker: %w", err)
	}
	return c, nil
}

// pipeConn is a net.Conn over two pipe ends: a worker subprocess's stdout
// and stdin on the coordinator side (cmd set), or the process's own stdin
// and stdout on the worker side. Deadlines map onto the pipe files.
type pipeConn struct {
	r, w *os.File
	name string

	cmd    *exec.Cmd
	stderr bytes.Buffer // written by exec's copier until Wait returns
	reap   sync.Once
	exit   string
}

// Read reads from the peer. On the coordinator side a failed read (other
// than a deadline) means the worker is gone: it is reaped, and the error
// carries its exit status and stderr tail.
func (c *pipeConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err != nil && c.cmd != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("%w (%s)", err, c.reapWorker())
	}
	return n, err
}

func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// CloseRead closes the inbound pipe only, so a draining worker can still
// flush its in-flight shard (Server.Shutdown prefers it over Close).
func (c *pipeConn) CloseRead() error { return c.r.Close() }

// Close closes both pipes and, on the coordinator side, kills and reaps
// the worker.
func (c *pipeConn) Close() error {
	c.r.Close()
	c.w.Close()
	if c.cmd != nil {
		c.reapWorker()
	}
	return nil
}

// reapWorker kills the worker (a no-op once it has exited) and waits for
// it, once, describing how it ended.
func (c *pipeConn) reapWorker() string {
	c.reap.Do(func() {
		c.cmd.Process.Kill()
		c.exit = fmt.Sprintf("worker: %v", c.cmd.Wait())
		if s := bytes.TrimSpace(c.stderr.Bytes()); len(s) > 0 {
			const tail = 512
			if len(s) > tail {
				s = s[len(s)-tail:]
			}
			c.exit += fmt.Sprintf("; stderr: %s", s)
		}
	})
	return c.exit
}

func (c *pipeConn) LocalAddr() stdnet.Addr  { return &stdnet.UnixAddr{Name: c.name, Net: "pipe"} }
func (c *pipeConn) RemoteAddr() stdnet.Addr { return &stdnet.UnixAddr{Name: c.name, Net: "pipe"} }
func (c *pipeConn) SetDeadline(t time.Time) error {
	return errors.Join(c.SetReadDeadline(t), c.SetWriteDeadline(t))
}
func (c *pipeConn) SetReadDeadline(t time.Time) error  { return c.r.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }
