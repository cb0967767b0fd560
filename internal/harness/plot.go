package harness

import (
	"fmt"
	"io"
	"strings"

	"eventhit/internal/mathx"
)

// Series is one named curve or point set for the ASCII plot.
type Series struct {
	Name   string
	Points []Point
}

// plotGlyphs assigns one rune per series, in order.
var plotGlyphs = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// RenderRECSPL draws an ASCII scatter of REC (y) versus SPL (x) — a
// terminal rendition of one Figure 4 panel. Both axes span [0,1].
func RenderRECSPL(w io.Writer, title string, series []Series) {
	const width, height = 61, 21
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	put := func(spl, rec float64, g rune) {
		x := int(mathx.Clamp(spl, 0, 1) * float64(width-1))
		y := height - 1 - int(mathx.Clamp(rec, 0, 1)*float64(height-1))
		if grid[y][x] == ' ' || grid[y][x] == g {
			grid[y][x] = g
		} else {
			grid[y][x] = '?' // collision of different series
		}
	}
	for si, s := range series {
		g := plotGlyphs[si%len(plotGlyphs)]
		for _, p := range s.Points {
			put(p.SPL, p.REC, g)
		}
	}
	fmt.Fprintln(w, title)
	for i, row := range grid {
		label := "    "
		switch i {
		case 0:
			label = "1.0 "
		case height / 2:
			label = "0.5 "
		case height - 1:
			label = "0.0 "
		}
		fmt.Fprintf(w, "%sREC|%s\n", label, string(row))
	}
	fmt.Fprintf(w, "       %s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "       0.0%sSPL%s1.0\n", strings.Repeat(" ", (width-7)/2), strings.Repeat(" ", (width-7)/2))
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", plotGlyphs[si%len(plotGlyphs)], s.Name))
	}
	fmt.Fprintf(w, "       legend: %s\n\n", strings.Join(legend, "   "))
}

// RenderFig4Plot draws a Fig4Result as an ASCII panel.
func (r *Fig4Result) RenderPlot(w io.Writer) {
	var series []Series
	for _, name := range []string{"EHCR", "EHC", "EHR", "COX", "VQS"} {
		if pts, ok := r.Curves[name]; ok {
			series = append(series, Series{Name: name, Points: pts})
		}
	}
	for _, name := range []string{"EHO", "OPT", "BF"} {
		if p, ok := r.Points[name]; ok {
			series = append(series, Series{Name: name, Points: []Point{p}})
		}
	}
	RenderRECSPL(w, fmt.Sprintf("Figure 4 (%s) — REC vs SPL", r.Task), series)
}
