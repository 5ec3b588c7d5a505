package lint

import (
	"go/ast"
	"go/types"
)

// DetOrder enforces the byte-identical-output guarantee behind the dse
// chunk runner's in-order handoff: parallel exploration must produce
// exactly the bytes the serial path would, and any map iteration on the candidate-emission or
// serialization path injects nondeterminism. Every `range` over a map
// in the emission-path packages is flagged; a range whose order is
// neutralized before the result is observable (keys collected then
// sorted, or accumulation into an order-free aggregate) is allowed with
//
//	//reprolint:ordered <why>
//
// on the range line or the line above.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc: "range over a map on the candidate-emission/serialization path breaks the " +
		"byte-identical-output guarantee; sort first and annotate //reprolint:ordered",
	Scope: scopeSuffixes(
		"internal/dse", "internal/skyline", "internal/plot",
		"internal/catalog", "internal/experiments",
	),
	Run: runDetOrder,
}

func runDetOrder(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				p.Reportf(rs.Pos(),
					"range over map is iteration-order nondeterministic on an emission path; sort the keys first and annotate //reprolint:ordered with the reason")
			}
			return true
		})
	}
}
