// The shared congestion heatmap renderer, used both by the live
// FlightRecorder at dump time and by `telemetry replay` when re-rendering
// a bundle offline. Keeping one implementation (and one wait-for graph,
// obsv.WaitGraph) is what makes the replayed artifacts byte-identical to
// the originals.
package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/topology"
)

// xmlEscaper escapes free text (dump reasons, SLO specs) embedded in
// SVG text nodes; specs like "p99<=100" would otherwise break XML
// well-formedness.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")

func xmlEscape(s string) string { return xmlEscaper.Replace(s) }

// heatmapRows bounds the heatmap to the hottest channels so the artifact
// stays readable on large networks; a footer reports what was cut.
const heatmapRows = 64

// RenderHeatmap renders per-channel congestion (busy+blocked samples,
// heat[c] for channel c) as a deterministic SVG bar chart, hottest
// first. Bars shade from green (cool) to red (hot); channels in cycleChs
// (a closed wait-for cycle) are bordered red, and the single hottest
// channel black. ends(ch) supplies the channel's endpoint nodes for the
// row label.
func RenderHeatmap(reason string, cycle int, heat []uint64, ends func(ch int) (src, dst int), cycleChs []topology.ChannelID) []byte {
	type row struct {
		ch   int
		heat uint64
	}
	rows := make([]row, 0, len(heat))
	var maxHeat uint64
	for ch, h := range heat {
		if h > 0 {
			rows = append(rows, row{ch, h})
			if h > maxHeat {
				maxHeat = h
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].heat != rows[j].heat {
			return rows[i].heat > rows[j].heat
		}
		return rows[i].ch < rows[j].ch
	})
	cut := 0
	if len(rows) > heatmapRows {
		cut = len(rows) - heatmapRows
		rows = rows[:heatmapRows]
	}
	onCycle := map[topology.ChannelID]bool{}
	for _, ch := range cycleChs {
		onCycle[ch] = true
	}

	const rowH, labelW, barW = 18, 150, 500
	width := labelW + barW + 20
	height := (len(rows)+2)*rowH + 30
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="12">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="10" y="18">channel congestion (busy+blocked samples) — %s @%d</text>`+"\n", xmlEscape(reason), cycle)
	y := 30
	for i, row := range rows {
		frac := float64(row.heat) / float64(maxHeat)
		w := int(frac * barW)
		if w < 1 {
			w = 1
		}
		// Green-to-red ramp by integer interpolation, deterministic.
		red := int(255 * frac)
		green := 255 - red
		stroke := "none"
		if onCycle[topology.ChannelID(row.ch)] {
			stroke = "red"
		}
		if i == 0 {
			stroke = "black"
		}
		src, dst := ends(row.ch)
		fmt.Fprintf(&b, `<text x="10" y="%d">c%d %d→%d</text>`+"\n", y+13, row.ch, src, dst)
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="rgb(%d,%d,0)" stroke="%s"/>`+"\n", labelW, y+2, w, rowH-4, red, green, stroke)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%d</text>`+"\n", labelW+w+5, y+13, row.heat)
		y += rowH
	}
	if cut > 0 {
		fmt.Fprintf(&b, `<text x="10" y="%d">(%d cooler channels omitted)</text>`+"\n", y+13, cut)
	}
	b.WriteString("</svg>\n")
	return []byte(b.String())
}
