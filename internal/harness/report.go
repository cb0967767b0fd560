package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders an aligned text table — the harness's
// answer to the paper's tables and figure series.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable starts a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	t.rows = append(t.rows, cells)
}

// Addf appends a row of formatted cells: each argument is rendered with
// %v for strings/ints and %.3f for floats.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.AddRow(row...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if t.title != "" {
		fmt.Fprintln(w, t.title)
	}
	var b strings.Builder
	for i, h := range t.headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.rows {
		b.Reset()
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	fmt.Fprintln(w)
}
