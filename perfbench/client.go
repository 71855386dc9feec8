package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	rtrace "runtime/trace"
	"sort"
	"strconv"
	"syscall"
	"time"

	"semandaq/internal/core"
	"semandaq/internal/server"
)

// instance is one in-process server on loopback TCP with its client.
type instance struct {
	srv  *http.Server
	done chan error
	base string
	tr   *http.Transport
	hc   *http.Client
}

func startServer() (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{
		srv:  &http.Server{Handler: server.New(core.New()).Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		// At most two connections: one closed-loop client never has more
		// than one request in flight, and the machine has two CPUs.
		tr: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
	in.hc = &http.Client{Transport: in.tr}
	go func() { in.done <- in.srv.Serve(ln) }()
	return in, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := in.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	in.tr.CloseIdleConnections()
	if err := <-in.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// reply is one completed request: its body, or for a stream its lines,
// and its size. dur covers sending the request and reading the whole
// body; first is the time to the first NDJSON line; cpu is the process's
// CPU time over the same interval.
type reply struct {
	status int
	body   []byte
	lines  [][]byte
	size   int
	dur    time.Duration
	first  time.Duration
	cpu    time.Duration
	alloc  uint64
	err    error
}

// cpuTime is the process's user and system CPU time so far. Unlike wall
// time it leaves out the time the host gives this machine's CPUs to other
// guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// call sends one request. With stream set the body is read line by line.
// Allocation and CPU time are read before and after, outside the timed
// interval; they count the server's and the client's work alike.
func (in *instance) call(ctx context.Context, method, path string, body []byte, stream bool) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, in.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	a0, c0 := heapAllocs(), cpuTime()
	var r reply
	start := time.Now()
	rtrace.WithRegion(ctx, method+" "+path, func() {
		resp, err := in.hc.Do(req)
		if err != nil {
			r.err = err
			return
		}
		defer resp.Body.Close()
		r.status = resp.StatusCode
		if !stream || resp.StatusCode/100 != 2 {
			r.body, r.err = io.ReadAll(resp.Body)
			r.size = len(r.body)
			return
		}
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 0 {
				if len(r.lines) == 0 {
					r.first = time.Since(start)
				}
				r.lines = append(r.lines, line)
				r.size += len(line)
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				r.err = err
				return
			}
		}
	})
	r.dur = time.Since(start)
	r.cpu = cpuTime() - c0
	r.alloc = heapAllocs() - a0
	return r
}

// sample is one metric's samples.
type sample []float64

func (s sample) quantile(q float64) float64 {
	v := append(sample(nil), s...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	if q == 0.5 {
		m := len(v) / 2
		if len(v)%2 == 0 {
			return (v[m-1] + v[m]) / 2
		}
		return v[m]
	}
	i := int(q*float64(len(v))+0.999999) - 1
	return v[max(i, 0)]
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// recorder accumulates one window's outcomes.
type recorder struct {
	lat    map[string]sample // per operation type, ms
	cpu    map[string]sample // per operation type, CPU ms
	first  sample            // stream time to first line, ms
	kb     map[string]sample // response size per operation type
	cycles sample            // per-cycle request time, ms
	cycle  float64
	busy   time.Duration
	cpuAll time.Duration
	ops    int
	alloc  uint64
	tried  int
	failed int
}

func newRecorder() *recorder {
	return &recorder{lat: map[string]sample{}, cpu: map[string]sample{}, kb: map[string]sample{}}
}

// finish books one attempted operation: a transport error, a non-2xx
// status or a failed check counts it failed and keeps its time out of the
// latency samples.
func (rc *recorder) finish(op string, r reply, check func() error) bool {
	rc.tried++
	err := r.err
	if err == nil && r.status/100 != 2 {
		err = fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		rc.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op, err)
		return false
	}
	ms := float64(r.dur) / float64(time.Millisecond)
	rc.lat[op] = append(rc.lat[op], ms)
	rc.kb[op] = append(rc.kb[op], float64(r.size)/1024)
	if r.first > 0 {
		rc.first = append(rc.first, float64(r.first)/float64(time.Millisecond))
	}
	rc.cpu[op] = append(rc.cpu[op], float64(r.cpu)/float64(time.Millisecond))
	rc.busy += r.dur
	rc.cpuAll += r.cpu
	rc.cycle += ms
	rc.ops++
	rc.alloc += r.alloc
	return true
}

func (rc *recorder) endCycle() {
	rc.cycles = append(rc.cycles, rc.cycle)
	rc.cycle = 0
}

// jsonCell is a cell's wire form: the integer columns travel as numbers,
// as the CSV reader types them.
func jsonCell(attr int, v string) any {
	if attr == aCC || attr == aAC {
		n, err := strconv.Atoi(v)
		if err == nil {
			return n
		}
	}
	return v
}

func jsonRow(row [arity]string) []any {
	out := make([]any, arity)
	for i, v := range row {
		out[i] = jsonCell(i, v)
	}
	return out
}

// cellString is the inverse of jsonCell for decoded JSON values.
func cellString(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'f', -1, 64)
	case string:
		return x
	default:
		return fmt.Sprint(x)
	}
}
