package dsl

import (
	"fmt"
	"strconv"
	"strings"

	"netarch/internal/kb"
)

// ParseString parses DSL source text into a validated knowledge base.
func ParseString(src string) (*kb.KB, error) {
	p := &parser{lines: splitLines(src), kb: &kb.KB{}}
	if err := p.run(); err != nil {
		return nil, err
	}
	if err := p.kb.Validate(); err != nil {
		return nil, err
	}
	return p.kb, nil
}

type parser struct {
	lines []line
	pos   int
	kb    *kb.KB
}

func (p *parser) eof() bool { return p.pos >= len(p.lines) }

func (p *parser) cur() line { return p.lines[p.pos] }

func (p *parser) run() error {
	for !p.eof() {
		l := p.cur()
		switch {
		case strings.HasPrefix(l.text, "system "):
			if err := p.parseSystem(); err != nil {
				return err
			}
		case strings.HasPrefix(l.text, "hardware "):
			if err := p.parseHardware(); err != nil {
				return err
			}
		case strings.HasPrefix(l.text, "workload "):
			if err := p.parseWorkload(); err != nil {
				return err
			}
		case strings.HasPrefix(l.text, "rule "):
			if err := p.parseRule(); err != nil {
				return err
			}
		case strings.HasPrefix(l.text, "order "):
			if err := p.parseOrder(); err != nil {
				return err
			}
		default:
			return errf(l.num, "expected a top-level block (system/hardware/workload/rule/order), got %q", l.text)
		}
	}
	return nil
}

// blockLines consumes a "<kw> <name> {" header and returns the name plus
// the body lines up to the matching "}".
func (p *parser) blockLines(keyword string) (string, []line, error) {
	header := p.cur()
	rest := strings.TrimPrefix(header.text, keyword+" ")
	name, tail := headerName(rest)
	if name == "" {
		return "", nil, errf(header.num, "%s block needs a name", keyword)
	}
	if strings.TrimSpace(tail) != "{" {
		return "", nil, errf(header.num, "%s %s: expected '{' at end of header", keyword, name)
	}
	p.pos++
	var body []line
	for !p.eof() {
		l := p.cur()
		if l.text == "}" {
			p.pos++
			return name, body, nil
		}
		body = append(body, l)
		p.pos++
	}
	return "", nil, errf(header.num, "%s %s: missing closing '}'", keyword, name)
}

func (p *parser) parseSystem() error {
	name, body, err := p.blockLines("system")
	if err != nil {
		return err
	}
	s := kb.System{Name: name}
	for _, l := range body {
		key, value, ok := splitKV(l.text)
		if !ok {
			return errf(l.num, "system %s: expected 'key: value', got %q", name, l.text)
		}
		switch {
		case key == "role":
			s.Role = kb.Role(value)
		case key == "solves":
			for _, v := range commaList(value) {
				s.Solves = append(s.Solves, kb.Property(v))
			}
		case key == "requires system":
			s.RequiresSystems = append(s.RequiresSystems, commaList(value)...)
		case key == "requires any-of":
			var group []string
			for _, v := range strings.Split(value, "|") {
				if v = strings.TrimSpace(v); v != "" {
					group = append(group, v)
				}
			}
			if len(group) == 0 {
				return errf(l.num, "system %s: empty any-of group", name)
			}
			s.RequiresAnyOf = append(s.RequiresAnyOf, group)
		case strings.HasPrefix(key, "requires "):
			kind := kb.HardwareKind(strings.TrimPrefix(key, "requires "))
			if s.RequiresCaps == nil {
				s.RequiresCaps = map[kb.HardwareKind][]kb.Capability{}
			}
			for _, v := range commaList(value) {
				s.RequiresCaps[kind] = append(s.RequiresCaps[kind], kb.Capability(v))
			}
		case key == "conflicts":
			s.ConflictsWith = append(s.ConflictsWith, commaList(value)...)
		case key == "context":
			conds, err := parseConditions(value)
			if err != nil {
				return errf(l.num, "system %s: %v", name, err)
			}
			s.RequiresContext = append(s.RequiresContext, conds...)
		case key == "useful-when":
			conds, err := parseConditions(value)
			if err != nil {
				return errf(l.num, "system %s: %v", name, err)
			}
			s.UsefulOnlyWhen = append(s.UsefulOnlyWhen, conds...)
		case strings.HasPrefix(key, "resource "):
			res := kb.Resource(strings.TrimPrefix(key, "resource "))
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return errf(l.num, "system %s: resource %s: bad number %q", name, res, value)
			}
			if s.Resources == nil {
				s.Resources = map[kb.Resource]int64{}
			}
			s.Resources[res] = n
		case key == "cores-per-kflows":
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return errf(l.num, "system %s: bad cores-per-kflows %q", name, value)
			}
			s.CoresPerKFlows = n
		case key == "app-modification":
			s.AppModification = value == "true"
		case key == "maturity":
			s.Maturity = value
		case strings.HasPrefix(key, "note "):
			if s.Notes == nil {
				s.Notes = map[string]string{}
			}
			s.Notes[strings.TrimPrefix(key, "note ")] = unquote(value)
		default:
			return errf(l.num, "system %s: unknown field %q", name, key)
		}
	}
	p.kb.Systems = append(p.kb.Systems, s)
	return nil
}

// parseConditions parses "atom, !atom, ..." into conditions.
func parseConditions(value string) ([]kb.Condition, error) {
	var out []kb.Condition
	for _, v := range commaList(value) {
		c := kb.Condition{Atom: v, Value: true}
		if strings.HasPrefix(v, "!") {
			c = kb.Condition{Atom: strings.TrimPrefix(v, "!"), Value: false}
		}
		if c.Atom == "" {
			return nil, fmt.Errorf("empty condition atom in %q", value)
		}
		out = append(out, c)
	}
	return out, nil
}

func (p *parser) parseHardware() error {
	name, body, err := p.blockLines("hardware")
	if err != nil {
		return err
	}
	h := kb.Hardware{Name: name}
	for _, l := range body {
		key, value, ok := splitKV(l.text)
		if !ok {
			return errf(l.num, "hardware %s: expected 'key: value', got %q", name, l.text)
		}
		switch {
		case key == "kind":
			h.Kind = kb.HardwareKind(value)
		case key == "vendor":
			h.Vendor = value
		case key == "caps":
			for _, v := range commaList(value) {
				h.Caps = append(h.Caps, kb.Capability(v))
			}
		case strings.HasPrefix(key, "quant "):
			res := kb.Resource(strings.TrimPrefix(key, "quant "))
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return errf(l.num, "hardware %s: quant %s: bad number %q", name, res, value)
			}
			if h.Quant == nil {
				h.Quant = map[kb.Resource]int64{}
			}
			h.Quant[res] = n
		case key == "cost":
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return errf(l.num, "hardware %s: bad cost %q", name, value)
			}
			h.CostUSD = n
		case strings.HasPrefix(key, "attr "):
			if h.Attrs == nil {
				h.Attrs = map[string]string{}
			}
			h.Attrs[unquote(strings.TrimPrefix(key, "attr "))] = unquote(value)
		default:
			return errf(l.num, "hardware %s: unknown field %q", name, key)
		}
	}
	p.kb.Hardware = append(p.kb.Hardware, h)
	return nil
}

func (p *parser) parseWorkload() error {
	name, body, err := p.blockLines("workload")
	if err != nil {
		return err
	}
	w := kb.Workload{Name: name}
	for _, l := range body {
		key, value, ok := splitKV(l.text)
		if !ok {
			return errf(l.num, "workload %s: expected 'key: value', got %q", name, l.text)
		}
		num := func() (int64, error) {
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return 0, errf(l.num, "workload %s: %s: bad number %q", name, key, value)
			}
			return n, nil
		}
		var n int64
		switch key {
		case "properties":
			w.Properties = append(w.Properties, commaList(value)...)
		case "deployed-at":
			w.DeployedAt = append(w.DeployedAt, commaList(value)...)
		case "needs":
			for _, v := range commaList(value) {
				w.Needs = append(w.Needs, kb.Property(v))
			}
		case "peak-cores":
			if n, err = num(); err != nil {
				return err
			}
			w.PeakCores = n
		case "peak-memory-gb":
			if n, err = num(); err != nil {
				return err
			}
			w.PeakMemoryGB = n
		case "peak-bandwidth-gbps":
			if n, err = num(); err != nil {
				return err
			}
			w.PeakBandwidthGbps = n
		case "kflows":
			if n, err = num(); err != nil {
				return err
			}
			w.KFlows = n
		default:
			return errf(l.num, "workload %s: unknown field %q", name, key)
		}
	}
	p.kb.Workloads = append(p.kb.Workloads, w)
	return nil
}

// parseRule parses `rule <name>: <expr> ["note"]` on one line.
func (p *parser) parseRule() error {
	l := p.cur()
	p.pos++
	rest := strings.TrimPrefix(l.text, "rule ")
	name, exprText, ok := splitKV(rest)
	if !ok || name == "" {
		return errf(l.num, "rule: expected 'rule <name>: <expr>', got %q", l.text)
	}
	exprText, note := trailingQuote(exprText)
	e, err := ParseExpr(exprText)
	if err != nil {
		return errf(l.num, "rule %s: %v", name, err)
	}
	p.kb.Rules = append(p.kb.Rules, kb.Rule{Name: name, Expr: e, Note: note})
	return nil
}

// parseOrder parses an order block of edge lines:
//
//	a > b [when <expr>] ["note"]
//	a = b [when <expr>] ["note"]
func (p *parser) parseOrder() error {
	dim, body, err := p.blockLines("order")
	if err != nil {
		return err
	}
	spec := kb.OrderSpec{Dimension: dim}
	for _, l := range body {
		text, note := trailingQuote(l.text)
		var guard *kb.Expr
		if i := strings.Index(text, " when "); i >= 0 {
			g, err := ParseExpr(strings.TrimSpace(text[i+6:]))
			if err != nil {
				return errf(l.num, "order %s: guard: %v", dim, err)
			}
			guard = &g
			text = strings.TrimSpace(text[:i])
		}
		var op string
		switch {
		case strings.Contains(text, ">"):
			op = ">"
		case strings.Contains(text, "="):
			op = "="
		default:
			return errf(l.num, "order %s: expected 'a > b' or 'a = b', got %q", dim, l.text)
		}
		parts := strings.SplitN(text, op, 2)
		a := strings.TrimSpace(parts[0])
		b := strings.TrimSpace(parts[1])
		if a == "" || b == "" {
			return errf(l.num, "order %s: malformed edge %q", dim, l.text)
		}
		if op == ">" {
			spec.Edges = append(spec.Edges, kb.OrderEdge{Better: a, Worse: b, Guard: guard, Note: note})
		} else {
			spec.Equals = append(spec.Equals, kb.OrderEq{A: a, B: b, Guard: guard, Note: note})
		}
	}
	p.kb.Orders = append(p.kb.Orders, spec)
	return nil
}
