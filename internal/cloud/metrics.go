package cloud

import "eventhit/internal/obs"

// RegisterUsage exposes a backend's billing/processing meters in r. The
// series are func-backed — each scrape snapshots Usage() under the
// service's own lock — so nothing is added to the request path.
//
// Families:
//
//	eventhit_cloud_requests_total       requests the CI processed
//	eventhit_cloud_billed_frames_total  frames processed (and billed)
//	eventhit_cloud_hit_frames_total     billed frames inside true events
//	eventhit_cloud_spent_usd_total      accumulated bill
//	eventhit_cloud_busy_ms_total        simulated processing time
func RegisterUsage(r *obs.Registry, labels obs.Labels, b Backend) {
	meters := []struct {
		name, help string
		get        func(Usage) float64
	}{
		{"eventhit_cloud_requests_total", "CI requests processed", func(u Usage) float64 { return float64(u.Requests) }},
		{"eventhit_cloud_billed_frames_total", "frames processed and billed by the CI", func(u Usage) float64 { return float64(u.Frames) }},
		{"eventhit_cloud_hit_frames_total", "billed frames that belonged to a true event", func(u Usage) float64 { return float64(u.HitFrames) }},
		{"eventhit_cloud_spent_usd_total", "accumulated CI bill in USD", func(u Usage) float64 { return u.SpentUSD }},
		{"eventhit_cloud_busy_ms_total", "simulated CI processing time", func(u Usage) float64 { return u.BusyMS }},
	}
	for _, m := range meters {
		get := m.get
		r.CounterFunc(m.name, m.help, labels, func() float64 { return get(b.Usage()) })
	}
}
