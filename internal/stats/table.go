package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table renders fixed-width command output: a header row, aligned
// columns, and an optional title.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Cells are formatted with %v; float64 cells are
// rendered width-aware via formatFloat.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat renders a float cell with one decimal place while the
// integer part fits in seven digits, and compact scientific notation
// beyond that — a cumulative byte counter rendered as
// "123456789012.0" would otherwise blow out its column and misalign
// the whole table. Non-finite values render as their names rather
// than as digits.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 0):
		return fmt.Sprintf("%v", v)
	case math.Abs(v) >= 1e7:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// Rows returns the formatted rows added so far.
func (t *Table) Rows() [][]string { return t.rows }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	var hdr strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			hdr.WriteString("  ")
		}
		fmt.Fprintf(&hdr, "%-*s", widths[i], c)
	}
	fmt.Fprintln(w, hdr.String())
	fmt.Fprintln(w, strings.Repeat("-", len(hdr.String())))
	for _, row := range t.rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			width := len(cell)
			if i < len(widths) {
				width = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", width, cell)
		}
		fmt.Fprintln(w, b.String())
	}
}
