package video

import "fmt"

// EventSpec describes one event type: its Table I statistics plus the
// precursor model that governs how much advance signal the covariates
// carry.
type EventSpec struct {
	// Name is the paper's label, e.g. "Person Opening a Vehicle".
	Name string
	// ID is the paper's global index (1-12, as in E1..E12).
	ID int
	// Occurrences is the target number of instances in a full stream
	// (Table I).
	Occurrences int
	// MeanDur and StdDur are the occurrence-interval duration statistics in
	// frames (Table I).
	MeanDur, StdDur float64
	// PrecursorMean and PrecursorStd govern the lead-signal length in
	// frames.
	PrecursorMean, PrecursorStd float64
	// CueNoise is the detector-independent ambiguity of the precursor cues
	// in [0, 1); larger values make the event intrinsically harder to
	// predict.
	CueNoise float64
}

// DatasetSpec is a full simulated dataset: its event types and the default
// collection-window / horizon sizes the paper uses for it (§VI.D).
type DatasetSpec struct {
	Name      string
	Events    []EventSpec
	StreamLen int // frames in a generated stream
	Window    int // default collection window M
	Horizon   int // default time horizon H
}

// EventIndexByID returns the in-spec index of the paper event ID (1-12),
// or an error when the dataset does not contain it.
func (d DatasetSpec) EventIndexByID(id int) (int, error) {
	for i, e := range d.Events {
		if e.ID == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("video: dataset %s has no event E%d", d.Name, id)
}

// minDuration floors sampled durations so no instance degenerates.
const minDuration = 5

// VIRAT returns the simulated VIRAT surveillance dataset: six event types
// with the exact occurrence counts and duration statistics of Table I.
// Precursors are sized relative to the paper's H=500 so that most events
// entering a horizon already show cues, and CueNoise grows with duration
// variability so that Group 2 events (E5, E6) are harder, as in §VI.D.
func VIRAT() DatasetSpec {
	return DatasetSpec{
		Name:      "VIRAT",
		StreamLen: 300_000,
		Window:    25,
		Horizon:   500,
		Events: []EventSpec{
			{Name: "Person Opening a Vehicle", ID: 1, Occurrences: 54, MeanDur: 68.9, StdDur: 15.4,
				PrecursorMean: 560, PrecursorStd: 40, CueNoise: 0.04},
			{Name: "Person Closing a Vehicle", ID: 2, Occurrences: 57, MeanDur: 62.0, StdDur: 11.9,
				PrecursorMean: 560, PrecursorStd: 40, CueNoise: 0.04},
			{Name: "Person Unloading an Object from a Vehicle", ID: 3, Occurrences: 56, MeanDur: 86.6, StdDur: 25.0,
				PrecursorMean: 540, PrecursorStd: 55, CueNoise: 0.07},
			{Name: "Person getting into a Vehicle", ID: 4, Occurrences: 93, MeanDur: 145.1, StdDur: 35.1,
				PrecursorMean: 540, PrecursorStd: 55, CueNoise: 0.07},
			{Name: "Person getting out of a Vehicle", ID: 5, Occurrences: 162, MeanDur: 193.7, StdDur: 158.8,
				PrecursorMean: 330, PrecursorStd: 110, CueNoise: 0.18},
			{Name: "Person carrying an object", ID: 6, Occurrences: 165, MeanDur: 571.2, StdDur: 176.4,
				PrecursorMean: 330, PrecursorStd: 110, CueNoise: 0.16},
		},
	}
}

// THUMOS returns the simulated THUMOS action dataset (Table I, E7-E9) with
// the paper's defaults M=10, H=200.
func THUMOS() DatasetSpec {
	return DatasetSpec{
		Name:      "THUMOS",
		StreamLen: 120_000,
		Window:    10,
		Horizon:   200,
		Events: []EventSpec{
			{Name: "Volleyball Spiking", ID: 7, Occurrences: 80, MeanDur: 99.3, StdDur: 40.1,
				PrecursorMean: 230, PrecursorStd: 20, CueNoise: 0.06},
			{Name: "Diving", ID: 8, Occurrences: 74, MeanDur: 91.2, StdDur: 35.4,
				PrecursorMean: 230, PrecursorStd: 20, CueNoise: 0.06},
			{Name: "Soccer Penalty", ID: 9, Occurrences: 48, MeanDur: 92.8, StdDur: 25.9,
				PrecursorMean: 235, PrecursorStd: 18, CueNoise: 0.05},
		},
	}
}

// Breakfast returns the simulated Breakfast cooking dataset (Table I,
// E10-E12) with the paper's defaults M=50, H=500. Its actions are dense
// and continuous, which is what makes APP-VAE viable there (§VI.D).
func Breakfast() DatasetSpec {
	return DatasetSpec{
		Name:      "Breakfast",
		StreamLen: 200_000,
		Window:    50,
		Horizon:   500,
		Events: []EventSpec{
			{Name: "Cut Fruit", ID: 10, Occurrences: 132, MeanDur: 114.0, StdDur: 48.8,
				PrecursorMean: 545, PrecursorStd: 50, CueNoise: 0.07},
			{Name: "Put fruit to Bowl", ID: 11, Occurrences: 121, MeanDur: 97.2, StdDur: 107.5,
				PrecursorMean: 330, PrecursorStd: 110, CueNoise: 0.17},
			{Name: "Put Egg to Plate", ID: 12, Occurrences: 95, MeanDur: 240.2, StdDur: 153.8,
				PrecursorMean: 330, PrecursorStd: 110, CueNoise: 0.16},
		},
	}
}

// SpecByEventID locates the dataset containing paper event ID (1-12).
func SpecByEventID(id int) (DatasetSpec, error) {
	switch {
	case id >= 1 && id <= 6:
		return VIRAT(), nil
	case id >= 7 && id <= 9:
		return THUMOS(), nil
	case id >= 10 && id <= 12:
		return Breakfast(), nil
	default:
		return DatasetSpec{}, fmt.Errorf("video: unknown event id E%d", id)
	}
}
