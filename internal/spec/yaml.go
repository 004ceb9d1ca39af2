// Package spec implements the human-readable schema language LabStacks and
// the Runtime configuration are written in. The paper uses YAML; since this
// repository is stdlib-only, spec implements a self-contained parser for the
// YAML subset the platform needs: block mappings, block sequences, flow
// sequences ([a, b]), quoted and plain scalars, comments, and nesting by
// indentation.
package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is one parsed YAML-subset value: exactly one of Scalar, List or Map
// semantics is active (IsScalar/IsList/IsMap).
type Node struct {
	scalar   string
	isScalar bool
	list     []*Node
	keys     []string // map key order
	kids     map[string]*Node
	// read is set when a lookup of this node's key returns it, so a strict
	// consumer can name the keys it never read (unread).
	read bool
	// want is set when a typed accessor (Int, Int64, Float, Bool) could not
	// parse the scalar: it names the kind of value the key needed, so a
	// consumer can fail instead of running on the default (invalid).
	want string
}

// IsScalar reports whether the node is a scalar.
func (n *Node) IsScalar() bool { return n != nil && n.isScalar }

// IsList reports whether the node is a sequence.
func (n *Node) IsList() bool { return n != nil && n.list != nil }

// IsMap reports whether the node is a mapping.
func (n *Node) IsMap() bool { return n != nil && n.kids != nil }

// Scalar returns the scalar value ("" for non-scalars).
func (n *Node) Scalar() string {
	if n == nil {
		return ""
	}
	return n.scalar
}

// List returns the sequence items (nil for non-lists).
func (n *Node) List() []*Node {
	if n == nil {
		return nil
	}
	return n.list
}

// Keys returns the mapping keys in document order.
func (n *Node) Keys() []string {
	if n == nil {
		return nil
	}
	return n.keys
}

// Get returns the child node for key (nil if absent or not a map) and
// marks it read.
func (n *Node) Get(key string) *Node {
	if n == nil || n.kids == nil {
		return nil
	}
	c := n.kids[key]
	if c != nil {
		c.read = true
	}
	return c
}

// unread returns the path below n of the first key, in document order,
// that no lookup read ("" if there is none). The values of read keys and
// the items of lists are searched too, so a nested key reads as
// ".serve.tenants[1].x".
func (n *Node) unread() string {
	p, _ := n.first(func(c *Node) bool { return !c.read })
	return p
}

// invalid returns the first key below n, in document order, whose value a
// typed accessor could not parse, as an error naming its path and value
// (nil if there is none). what names the document, e.g. "runtime config".
func (n *Node) invalid(what string) error {
	p, bad := n.first(func(c *Node) bool { return c.want != "" })
	if bad == nil {
		return nil
	}
	return fmt.Errorf("spec: %s key %q: %q is not %s", what, strings.TrimPrefix(p, "."), bad.scalar, bad.want)
}

// first returns the first value below n, in document order, that f picks,
// and the path of its key ("", nil if there is none). The values of keys f
// passes over and the items of lists are searched too.
func (n *Node) first(f func(*Node) bool) (string, *Node) {
	for _, k := range n.keys {
		c := n.kids[k]
		if f(c) {
			return "." + k, c
		}
		if p, v := c.first(f); v != nil {
			return "." + k + p, v
		}
	}
	for i, it := range n.list {
		if p, v := it.first(f); v != nil {
			return fmt.Sprintf("[%d]%s", i, p), v
		}
	}
	return "", nil
}

// Str returns the scalar at key, or def.
func (n *Node) Str(key, def string) string {
	c := n.Get(key)
	if c == nil || !c.isScalar {
		return def
	}
	return c.scalar
}

// Int returns the integer at key, or def. A value that is not an integer
// also returns def, and is marked for invalid to report.
func (n *Node) Int(key string, def int) int {
	c := n.Get(key)
	if c == nil || !c.isScalar {
		return def
	}
	v, err := strconv.Atoi(strings.TrimSpace(c.scalar))
	if err != nil {
		c.want = "an integer"
		return def
	}
	return v
}

// Int64 returns the 64-bit integer at key, or def, as Int does.
func (n *Node) Int64(key string, def int64) int64 {
	c := n.Get(key)
	if c == nil || !c.isScalar {
		return def
	}
	v, err := strconv.ParseInt(strings.TrimSpace(c.scalar), 10, 64)
	if err != nil {
		c.want = "a 64-bit integer"
		return def
	}
	return v
}

// Float returns the float at key, or def, as Int does.
func (n *Node) Float(key string, def float64) float64 {
	c := n.Get(key)
	if c == nil || !c.isScalar {
		return def
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(c.scalar), 64)
	if err != nil {
		c.want = "a number"
		return def
	}
	return v
}

// Bool returns the boolean at key, or def, as Int does.
func (n *Node) Bool(key string, def bool) bool {
	c := n.Get(key)
	if c == nil || !c.isScalar {
		return def
	}
	switch strings.ToLower(strings.TrimSpace(c.scalar)) {
	case "true", "yes", "on", "1":
		return true
	case "false", "no", "off", "0":
		return false
	}
	c.want = "a boolean"
	return def
}

// Strings returns the sequence of scalars at key (flow or block list), or a
// single-element slice if the value is a plain scalar.
func (n *Node) Strings(key string) []string {
	c := n.Get(key)
	if c == nil {
		return nil
	}
	if c.isScalar {
		if c.scalar == "" {
			return nil
		}
		return []string{c.scalar}
	}
	var out []string
	for _, it := range c.list {
		if it.isScalar {
			out = append(out, it.scalar)
		}
	}
	return out
}

// StringMap flattens a mapping of scalars at key into a map.
func (n *Node) StringMap(key string) map[string]string {
	c := n.Get(key)
	if c == nil || c.kids == nil {
		return nil
	}
	out := make(map[string]string, len(c.keys))
	for _, k := range c.keys {
		if v := c.kids[k]; v != nil && v.isScalar {
			v.read = true
			out[k] = v.scalar
		}
	}
	return out
}

func scalarNode(s string) *Node { return &Node{scalar: s, isScalar: true} }

func mapNode() *Node { return &Node{kids: make(map[string]*Node)} }

func (n *Node) put(key string, v *Node) {
	if _, exists := n.kids[key]; !exists {
		n.keys = append(n.keys, key)
	}
	n.kids[key] = v
}

// ParseError reports a parse failure with a line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("spec: line %d: %s", e.Line, e.Msg) }

type line struct {
	num    int
	indent int
	text   string // content with indent stripped
}

// Parse parses a YAML-subset document into its root node. An empty document
// parses to an empty map.
func Parse(src string) (*Node, error) {
	var lines []line
	for i, raw := range strings.Split(src, "\n") {
		t := stripComment(raw)
		if strings.TrimSpace(t) == "" {
			continue
		}
		indent := 0
		for indent < len(t) && t[indent] == ' ' {
			indent++
		}
		if indent < len(t) && t[indent] == '\t' {
			return nil, &ParseError{Line: i + 1, Msg: "tabs are not allowed for indentation"}
		}
		lines = append(lines, line{num: i + 1, indent: indent, text: t[indent:]})
	}
	if len(lines) == 0 {
		return mapNode(), nil
	}
	p := &parser{lines: lines}
	n, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, &ParseError{Line: p.lines[p.pos].num, Msg: "unexpected dedent/content"}
	}
	return n, nil
}

func stripComment(s string) string {
	inQuote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == '#':
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) peek() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses a block (map or list) whose items are at exactly indent.
func (p *parser) parseBlock(indent int) (*Node, error) {
	l, ok := p.peek()
	if !ok || l.indent < indent {
		return mapNode(), nil
	}
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func (p *parser) parseList(indent int) (*Node, error) {
	n := &Node{list: []*Node{}}
	for {
		l, ok := p.peek()
		if !ok || l.indent != indent || !(strings.HasPrefix(l.text, "- ") || l.text == "-") {
			if ok && l.indent > indent {
				return nil, &ParseError{Line: l.num, Msg: "unexpected indent inside sequence"}
			}
			return n, nil
		}
		rest := strings.TrimPrefix(l.text, "-")
		rest = strings.TrimPrefix(rest, " ")
		itemIndent := indent + 2
		if rest == "" {
			// nested block on the following lines
			p.pos++
			nl, ok2 := p.peek()
			if !ok2 || nl.indent <= indent {
				n.list = append(n.list, scalarNode(""))
				continue
			}
			item, err := p.parseBlock(nl.indent)
			if err != nil {
				return nil, err
			}
			n.list = append(n.list, item)
			continue
		}
		// Rewrite "- content" as "content" at itemIndent and reparse.
		p.lines[p.pos] = line{num: l.num, indent: itemIndent, text: rest}
		if isMapStart(rest) {
			item, err := p.parseMap(itemIndent)
			if err != nil {
				return nil, err
			}
			n.list = append(n.list, item)
		} else {
			v, err := parseFlowScalar(rest, l.num)
			if err != nil {
				return nil, err
			}
			n.list = append(n.list, v)
			p.pos++
		}
	}
}

func (p *parser) parseMap(indent int) (*Node, error) {
	n := mapNode()
	for {
		l, ok := p.peek()
		if !ok || l.indent != indent {
			if ok && l.indent > indent {
				return nil, &ParseError{Line: l.num, Msg: "unexpected indent inside mapping"}
			}
			return n, nil
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return n, nil // list at same indent: let caller handle (error upstream)
		}
		key, rest, found := splitKey(l.text)
		if !found {
			return nil, &ParseError{Line: l.num, Msg: fmt.Sprintf("expected 'key:' in %q", l.text)}
		}
		p.pos++
		if rest != "" {
			v, err := parseFlowScalar(rest, l.num)
			if err != nil {
				return nil, err
			}
			n.put(key, v)
			continue
		}
		// Value is a nested block (or empty).
		nl, ok2 := p.peek()
		if !ok2 || nl.indent <= indent {
			// "key:" with no nested content — allow a same-indent list below
			if ok2 && nl.indent == indent && (strings.HasPrefix(nl.text, "- ") || nl.text == "-") {
				v, err := p.parseList(indent)
				if err != nil {
					return nil, err
				}
				n.put(key, v)
				continue
			}
			n.put(key, scalarNode(""))
			continue
		}
		v, err := p.parseBlock(nl.indent)
		if err != nil {
			return nil, err
		}
		n.put(key, v)
	}
}

func isMapStart(s string) bool {
	key, _, found := splitKey(s)
	return found && key != ""
}

// splitKey splits "key: value" respecting quotes; returns found=false if the
// line has no top-level ':' key separator.
func splitKey(s string) (key, rest string, found bool) {
	inQuote := byte(0)
	depth := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0:
			if i+1 == len(s) {
				return unquote(strings.TrimSpace(s[:i])), "", true
			}
			if s[i+1] == ' ' {
				return unquote(strings.TrimSpace(s[:i])), strings.TrimSpace(s[i+2:]), true
			}
			// "::" inside mount paths like fs::/b — not a key separator;
			// skip the second colon too.
			if s[i+1] == ':' {
				i++
			}
		}
	}
	return "", "", false
}

// parseFlowScalar parses an inline value: a flow sequence "[a, b]" or a
// (possibly quoted) scalar.
func parseFlowScalar(s string, lineNum int) (*Node, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, &ParseError{Line: lineNum, Msg: "unterminated flow sequence"}
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		n := &Node{list: []*Node{}}
		if inner == "" {
			return n, nil
		}
		for _, part := range splitFlow(inner) {
			n.list = append(n.list, scalarNode(unquote(strings.TrimSpace(part))))
		}
		return n, nil
	}
	return scalarNode(unquote(s)), nil
}

func splitFlow(s string) []string {
	var parts []string
	inQuote := byte(0)
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote != 0:
			if c == inQuote {
				inQuote = 0
			}
		case c == '"' || c == '\'':
			inQuote = c
		case c == ',':
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func unquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
