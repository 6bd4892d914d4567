package chaos

import (
	"io"
	"net/http"
	"time"
)

// transport is the http.RoundTripper wrapper behind
// Injector.Transport.
type transport struct {
	inj  *Injector
	base http.RoundTripper
}

// Transport wraps base (nil = http.DefaultTransport) so every request
// through it is subject to this injector's faults: injected latency
// first, then partitions and drops. Fault order matters and mirrors a
// real network: a slow link still delays a request that is then lost.
//
//   - two-way partition: the request never reaches the server;
//   - request drop: ditto, for this one request;
//   - one-way partition / response drop: the request is delivered and
//     the server's work happens, but the caller gets an error — the
//     "did it land?" ambiguity every fleet call must survive.
//
// Delays respect the request context: a caller whose per-request
// timeout fires mid-delay gets ctx.Err(), exactly like a deadline
// expiring on a slow wire.
func (i *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{inj: i, base: base}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.inj
	i.requests.Add(1)
	d := i.decide()
	if d.delay > 0 {
		i.delayed.Add(1)
		timer := time.NewTimer(d.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	switch i.partition.Load() {
	case PartitionTwoWay:
		i.partitioned.Add(1)
		return nil, errPartitioned
	case PartitionOneWay:
		// Deliver the request, drop the response.
		i.partitioned.Add(1)
		resp, err := t.base.RoundTrip(req)
		if err == nil {
			drainClose(resp)
		}
		return nil, errPartitioned
	}
	if d.dropRequest {
		i.droppedRequests.Add(1)
		return nil, errDropRequest
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.dropResponse {
		i.droppedResponses.Add(1)
		drainClose(resp)
		return nil, errDropResponse
	}
	return resp, nil
}

// drainClose consumes a dropped response so the underlying connection
// is reusable — the fault is ours, not the transport's.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// OffsetClock returns a clock running `offset` away from base — the
// clock-skew axis. Hand it to lab.FleetConfig.Clock: a coordinator
// living in the future or past relative to its workers, whose own
// clocks the lease protocol never reads.
func OffsetClock(base func() time.Time, offset time.Duration) func() time.Time {
	if base == nil {
		base = time.Now
	}
	return func() time.Time { return base().Add(offset) }
}
