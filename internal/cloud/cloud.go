// Package cloud simulates the cloud inference service (CI) of the paper: a
// per-frame-priced, highly accurate event detector in the style of Amazon
// Rekognition (§I, §VI.G). The CI's behaviours that matter to EventHit are
// (a) correctness of detection on the frames it is given, (b) monetary
// cost accrued per processed frame, and (c) processing latency per frame —
// all three are modelled; pixels are not.
package cloud

import (
	"fmt"
	"sync"

	"eventhit/internal/video"
)

// Pricing is the CI's billing model.
type Pricing struct {
	// PerFrameUSD is the price of analysing one frame. The paper's case
	// study uses Amazon Rekognition's US $0.001 per frame (§VI.G).
	PerFrameUSD float64
}

// RekognitionPricing returns the pricing used in §VI.G.
func RekognitionPricing() Pricing { return Pricing{PerFrameUSD: 0.001} }

// Latency is the CI's processing cost model.
type Latency struct {
	// PerFrameMS is the inference time per frame in milliseconds. The
	// paper's event-detection models (e.g. I3D) run near 25 fps, i.e.
	// 40 ms/frame (§VI.H).
	PerFrameMS float64
}

// DefaultLatency returns the I3D-like latency of §VI.H.
func DefaultLatency() Latency { return Latency{PerFrameMS: 40} }

// Detection is the CI's verdict for one frame range of one event type.
type Detection struct {
	// Found lists the portions of requested frames covered by true event
	// occurrences.
	Found []video.Interval
}

// Backend is the CI surface consumed by the resilient client and the
// pipeline: a timed detect call plus the meters the cost accounting needs.
// Both the raw *Service and the fault-injecting *Faulty implement it.
type Backend interface {
	// DetectTimed is Detect plus the request's simulated latency in
	// milliseconds. The latency is reported even for failed requests (the
	// time spent before the failure was observed).
	DetectTimed(eventType int, win video.Interval) (Detection, float64, error)
	// Usage returns the accumulated billing/processing meters.
	Usage() Usage
	// PerFrameMS exposes the nominal per-frame latency model.
	PerFrameMS() float64
}

// Service is a simulated CI bound to a ground-truth stream. It is safe for
// concurrent use.
type Service struct {
	mu      sync.Mutex
	stream  *video.Stream
	pricing Pricing
	latency Latency

	frames    int64   // frames processed
	spentUSD  float64 // money spent
	busyMS    float64 // simulated processing time
	requests  int64
	hitFrames int64 // processed frames that actually belonged to an event
}

// NewService returns a CI over stream with the given cost models.
func NewService(stream *video.Stream, p Pricing, l Latency) *Service {
	return &Service{stream: stream, pricing: p, latency: l}
}

// ErrUnavailable is wrapped by transient request failures injected by
// Faulty.
var ErrUnavailable = fmt.Errorf("cloud: service unavailable")

// Detect processes the frames in win (absolute indices) looking for the
// given stream event type, charging for every frame. It returns the exact
// occurrences overlapping the range — the CI is assumed accurate (§II:
// "a CI of choice provides access to a model of high accuracy").
func (s *Service) Detect(eventType int, win video.Interval) (Detection, error) {
	if eventType < 0 || eventType >= s.stream.NumTypes() {
		return Detection{}, fmt.Errorf("cloud: unknown event type %d", eventType)
	}
	n := win.Len()
	if n == 0 {
		return Detection{}, nil
	}
	var det Detection
	hit := 0
	for _, in := range s.stream.InstancesOverlapping(eventType, win) {
		if ov, ok := in.OI.Intersect(win); ok {
			det.Found = append(det.Found, ov)
			hit += ov.Len()
		}
	}
	s.mu.Lock()
	s.requests++
	s.frames += int64(n)
	s.hitFrames += int64(hit)
	s.spentUSD += float64(n) * s.pricing.PerFrameUSD
	s.busyMS += float64(n) * s.latency.PerFrameMS
	s.mu.Unlock()
	return det, nil
}

// DetectTimed implements Backend: Detect plus the request's simulated
// latency (frames x PerFrameMS; zero when the request fails).
func (s *Service) DetectTimed(eventType int, win video.Interval) (Detection, float64, error) {
	det, err := s.Detect(eventType, win)
	if err != nil {
		return det, 0, err
	}
	return det, float64(win.Len()) * s.latency.PerFrameMS, nil
}

// Peek returns the true occurrences overlapping win WITHOUT billing,
// metering or simulated latency. It is a simulation-only oracle readout —
// a real CI has no free path — used to score the honesty of cache hits:
// a verdict stored for an equal past, or a stale one, may hide an
// occurrence the CI would have found, and the recall accounting must see
// that.
func (s *Service) Peek(eventType int, win video.Interval) []video.Interval {
	if eventType < 0 || eventType >= s.stream.NumTypes() || win.Len() == 0 {
		return nil
	}
	var found []video.Interval
	for _, in := range s.stream.InstancesOverlapping(eventType, win) {
		if ov, ok := in.OI.Intersect(win); ok {
			found = append(found, ov)
		}
	}
	return found
}

// Usage is a snapshot of the CI meter.
type Usage struct {
	Requests  int64
	Frames    int64
	HitFrames int64
	SpentUSD  float64
	BusyMS    float64
}

// Usage returns the accumulated meter readings.
func (s *Service) Usage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Usage{
		Requests:  s.requests,
		Frames:    s.frames,
		HitFrames: s.hitFrames,
		SpentUSD:  s.spentUSD,
		BusyMS:    s.busyMS,
	}
}

// CostOf returns the price of processing n frames without processing them.
func (s *Service) CostOf(n int) float64 { return float64(n) * s.pricing.PerFrameUSD }

// PerFrameMS exposes the latency model (used by the pipeline's FPS model).
func (s *Service) PerFrameMS() float64 { return s.latency.PerFrameMS }
