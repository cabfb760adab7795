package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends requests when they fall due, whatever happened to earlier
// ones: a fixed set of connections serves one shared queue, so a stall in
// the server delays every request due during it, and timing each request
// from its due time shows that delay instead of hiding it.
type openLoop struct {
	client   *http.Client
	queue    chan task
	wg       sync.WaitGroup
	requests atomic.Int64
}

// task is one unit of load. It is enqueued when it falls due and runs on
// the first free worker.
type task func(g *openLoop)

// queueCap bounds tasks waiting for a connection. It covers a 60 s window
// at the workloads' rates, so the pacer never blocks on a full queue; if
// it did, lateness would still be measured from the due time.
const queueCap = 1 << 17

func newOpenLoop(conns int) *openLoop {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	g := &openLoop{
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		queue:  make(chan task, queueCap),
	}
	for i := 0; i < conns; i++ {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for t := range g.queue {
				t(g)
			}
		}()
	}
	return g
}

func (g *openLoop) enqueue(t task) { g.queue <- t }

// close stops the workers after the queued tasks have run.
func (g *openLoop) close() {
	close(g.queue)
	g.wg.Wait()
	g.client.CloseIdleConnections()
}

// pace enqueues mk(i, due) for due = start + i*every while due < end,
// each at its due time. It returns the number of tasks enqueued.
func pace(g *openLoop, start, end time.Time, every time.Duration, mk func(i int, due time.Time) task) int {
	i := 0
	for ; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(end) {
			return i
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		g.enqueue(mk(i, due))
	}
}

// call sends one request and decodes a JSON response into out (when not
// nil). It returns the status code; a transport or decode error is err.
func (g *openLoop) call(method, url string, body []byte, out any) (int, error) {
	g.requests.Add(1)
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// sample is one timed operation of the open loop.
type sample struct {
	due, start, end time.Time
	ok              bool // answered without a transport error or error status
	wrong           bool // answered, but not with the expected content
}

// latencyMs is the time from due to done; a failed operation never met any
// limit, so it reads as infinite.
func (s sample) latencyMs() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.end.Sub(s.due)) / 1e6
}

// lateMs is how long after its due time the operation was sent.
func (s sample) lateMs() float64 { return float64(s.start.Sub(s.due)) / 1e6 }
