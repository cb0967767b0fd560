package serve

import (
	"strconv"

	"eventhit/internal/metrics"
)

// predictScratch is the per-request working set of a predict: the window
// copied out of the session ring (x's rows are fixed views into flat, so a
// copy into flat is all a request pays), the per-event label slices, the
// decision with the raw scores copied out of the session's decision scratch
// (which stays with the session: see session.dec), and the response with
// its encoding.
type predictScratch struct {
	flat                         []float64
	x                            [][]float64
	labelKnown, labelTrue, label []bool
	scores                       []float64
	pred                         metrics.Prediction
	resp                         PredictResponse
	out                          []byte
}

func newPredictScratch(window, d, k int) *predictScratch {
	sc := &predictScratch{
		flat:       make([]float64, window*d),
		x:          make([][]float64, window),
		labelKnown: make([]bool, k),
		labelTrue:  make([]bool, k),
		label:      make([]bool, k),
		scores:     make([]float64, k),
		resp:       PredictResponse{Decisions: make([]Decision, 0, k)},
	}
	for i := range sc.x {
		sc.x[i] = sc.flat[i*d : (i+1)*d : (i+1)*d]
	}
	return sc
}

// appendPredictResponse appends resp to dst byte for byte as
// json.NewEncoder(w).Encode(resp) writes it — field order, the omitempty
// rules of Decision and the trailing newline included — without reflection
// or allocation. names[k] is Decisions[k].Event already encoded as a JSON
// string (Server.eventJSON).
func appendPredictResponse(dst []byte, resp *PredictResponse, names [][]byte) []byte {
	dst = append(dst, `{"anchor":`...)
	dst = strconv.AppendInt(dst, int64(resp.Anchor), 10)
	dst = append(dst, `,"horizonEnd":`...)
	dst = strconv.AppendInt(dst, int64(resp.HorizonEnd), 10)
	if resp.Decisions == nil {
		return append(dst, `,"decisions":null}`+"\n"...)
	}
	dst = append(dst, `,"decisions":[`...)
	for k := range resp.Decisions {
		d := &resp.Decisions[k]
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"event":`...)
		dst = append(dst, names[k]...)
		dst = append(dst, `,"relay":`...)
		dst = strconv.AppendBool(dst, d.Relay)
		if d.Start != 0 {
			dst = append(dst, `,"start":`...)
			dst = strconv.AppendInt(dst, int64(d.Start), 10)
		}
		if d.End != 0 {
			dst = append(dst, `,"end":`...)
			dst = strconv.AppendInt(dst, int64(d.End), 10)
		}
		if d.Deferred {
			dst = append(dst, `,"deferred":true`...)
		}
		if d.Detections != 0 {
			dst = append(dst, `,"detections":`...)
			dst = strconv.AppendInt(dst, int64(d.Detections), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}
