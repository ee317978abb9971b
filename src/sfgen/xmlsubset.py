"""Minimal XML parser for model documents.

Accepts the constrained subset the modeling language actually uses: elements,
single- or double-quoted attributes, character data, comments, an optional XML
declaration, and the five predefined entities. DOCTYPE, CDATA, processing
instructions, numeric character references and namespace prefixes are rejected
with a located error.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
# Ends a name only where no name character or ':' follows, so a failed match
# never retries a shorter name. A lookahead, because atomic groups need 3.11.
_NAME_END = r"(?![A-Za-z0-9_.\-:])"
_WS = r"[ \t\r\n]*"

NAME_RE = re.compile(_NAME)
ENTITY_RE = re.compile(r"&([A-Za-z]+);")
PREDEFINED_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
WHITESPACE_RE = re.compile(_WS)
NEWLINE_RE = re.compile("\n")

# Well-formed markup is matched whole by these; where one does not match, the
# step-by-step readers of `_Parser` run instead and raise the located error.
START_TAG_RE = re.compile("<(" + _NAME + ")" + _NAME_END)
ATTRIBUTE_RE = re.compile(
    _WS + "(" + _NAME + ")" + _NAME_END + _WS + "=" + _WS + "(?:\"([^\"<]*)\"|'([^'<]*)')")
TAG_END_RE = re.compile(_WS + "(/?)>")
END_TAG_RE = re.compile("</(" + _NAME + ")" + _NAME_END + _WS + ">")


class ParseError(Exception):
    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"{line}:{column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


@dataclass(slots=True)
class XmlNode:
    tag: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list["XmlNode"] = field(default_factory=list)
    text: str = ""
    location: tuple[int, int] = (1, 1)
    attribute_locations: dict[str, tuple[int, int]] = field(default_factory=dict)


class _Parser:
    """One document's text, with the readers that work on it.

    Readers take a position and return the position after what they read.
    """

    def __init__(self, text: str):
        self.text = text
        # offsets of line starts, for O(log n) location lookup
        self.line_starts = [0]
        self.line_starts.extend(m.end() for m in NEWLINE_RE.finditer(text))

    def location(self, pos: int) -> tuple[int, int]:
        line = bisect_right(self.line_starts, pos)
        return line, pos - self.line_starts[line - 1] + 1

    def fail(self, reason: str, pos: int) -> ParseError:
        line, column = self.location(pos)
        return ParseError(line, column, reason)

    def skip_whitespace(self, pos: int) -> int:
        return WHITESPACE_RE.match(self.text, pos).end()

    def skip_misc(self, pos: int) -> int:
        """Whitespace and comments between markup."""
        while True:
            pos = self.skip_whitespace(pos)
            if not self.text.startswith("<!--", pos):
                return pos
            pos = self.read_comment(pos)

    def read_comment(self, pos: int) -> int:
        end = self.text.find("-->", pos + 4)
        if end < 0:
            raise self.fail("unterminated comment", pos)
        return end + 3

    def read_name(self, pos: int, what: str) -> int:
        m = NAME_RE.match(self.text, pos)
        if m is None:
            raise self.fail(f"expected {what}", pos)
        if self.text.startswith(":", m.end()):
            raise self.fail(f"namespace prefixes are not allowed in {what}", pos)
        return m.end()

    def decode_text(self, raw: str, pos: int) -> str:
        out: list[str] = []
        i = 0
        while True:
            amp = raw.find("&", i)
            if amp < 0:
                out.append(raw[i:])
                return "".join(out)
            out.append(raw[i:amp])
            m = ENTITY_RE.match(raw, amp)
            if m is None or m.group(1) not in PREDEFINED_ENTITIES:
                raise self.fail("undefined or malformed entity reference", pos + amp)
            out.append(PREDEFINED_ENTITIES[m.group(1)])
            i = m.end()

    def read_attribute(self, pos: int, attributes: dict[str, str]) -> tuple[int, str, str, int]:
        """Read one attribute check by check; returns (name position, name, value, end).

        Runs only where ATTRIBUTE_RE does not match, so one of the checks fails.
        """
        text = self.text
        name_pos = self.skip_whitespace(pos)
        pos = self.read_name(name_pos, "attribute name")
        name = text[name_pos:pos]
        if name in attributes:
            raise self.fail(f"duplicate attribute '{name}'", name_pos)
        pos = self.skip_whitespace(pos)
        if not text.startswith("=", pos):
            raise self.fail("expected '=' after attribute name", pos)
        pos = self.skip_whitespace(pos + 1)
        if pos >= len(text) or text[pos] not in "'\"":
            raise self.fail("expected quoted attribute value", pos)
        value_start = pos + 1
        end = text.find(text[pos], value_start)
        if end < 0:
            raise self.fail("unterminated attribute value", value_start)
        raw = text[value_start:end]
        if "<" in raw:
            raise self.fail("'<' in attribute value", value_start + raw.index("<"))
        return name_pos, name, self.decode_text(raw, value_start), end + 1

    def read_end_tag(self, pos: int, tag: str) -> int:
        """Read the closing tag at pos check by check; it must close `tag`.

        Runs only where END_TAG_RE does not match it, so one of the checks fails.
        """
        end = self.read_name(pos + 2, "closing tag name")
        close = self.text[pos + 2:end]
        if close != tag:
            raise self.fail(f"mismatched closing tag '</{close}>' for '<{tag}>'", end)
        pos = self.skip_whitespace(end)
        if not self.text.startswith(">", pos):
            raise self.fail("expected '>' after closing tag", pos)
        return pos + 1

    def parse_element(self, pos: int) -> tuple[XmlNode, int]:
        """Parse the element whose start tag is at pos; returns it and its end.

        One loop with an explicit stack of the open elements, each with its
        start position and text parts, so nesting depth is bounded by memory
        rather than by the interpreter's recursion limit.
        """
        text = self.text
        line_starts = self.line_starts
        find = text.find
        startswith = text.startswith
        match_start_tag = START_TAG_RE.match
        match_attribute = ATTRIBUTE_RE.match
        match_tag_end = TAG_END_RE.match
        match_end_tag = END_TAG_RE.match
        stack: list[tuple[XmlNode, int, list[str]]] = []
        while True:
            # pos is at the '<' of a start tag
            start = pos
            m = match_start_tag(text, pos)
            if m is None:
                pos = self.read_name(pos + 1, "element name")
                tag = text[start + 1:pos]
            else:
                tag = m.group(1)
                pos = m.end()
            attributes: dict[str, str] = {}
            attribute_locations: dict[str, tuple[int, int]] = {}
            while True:
                m = match_attribute(text, pos)
                if m is not None:
                    name, value, single_quoted = m.groups()
                    name_pos = m.start(1)
                    if name in attributes:
                        raise self.fail(f"duplicate attribute '{name}'", name_pos)
                    if value is None:
                        value = single_quoted
                    if "&" in value:
                        value = self.decode_text(value, m.end() - 1 - len(value))
                    pos = m.end()
                else:
                    tag_end = match_tag_end(text, pos)
                    if tag_end is not None:
                        break
                    name_pos, name, value, pos = self.read_attribute(pos, attributes)
                attributes[name] = value
                line = bisect_right(line_starts, name_pos)
                attribute_locations[name] = (line, name_pos - line_starts[line - 1] + 1)
            line = bisect_right(line_starts, start)
            node = XmlNode(tag, attributes, [], "", (line, start - line_starts[line - 1] + 1),
                           attribute_locations)
            if stack:
                stack[-1][0].children.append(node)
            pos = tag_end.end()
            if tag_end.group(1):  # self-closing
                if not stack:
                    return node, pos
            else:
                stack.append((node, start, []))

            # content up to the next start tag, closing elements on the way
            while True:
                node, start, text_parts = stack[-1]
                lt = find("<", pos)
                if lt < 0:
                    raise self.fail(f"unclosed element '{node.tag}'", start)
                if lt > pos:
                    raw = text[pos:lt]
                    text_parts.append(self.decode_text(raw, pos) if "&" in raw else raw)
                    pos = lt
                if startswith("</", pos):
                    m = match_end_tag(text, pos)
                    if m is not None and m.group(1) == node.tag:
                        pos = m.end()
                    else:
                        pos = self.read_end_tag(pos, node.tag)
                    node.text = "".join(text_parts)
                    stack.pop()
                    if not stack:
                        return node, pos
                elif startswith("<!--", pos):
                    pos = self.read_comment(pos)
                elif startswith("<![CDATA[", pos):
                    raise self.fail("CDATA sections are not allowed", pos)
                elif startswith("<!", pos):
                    raise self.fail("DOCTYPE and markup declarations are not allowed", pos)
                elif startswith("<?", pos):
                    raise self.fail("processing instructions are not allowed", pos)
                else:
                    break


def parse_document(data: bytes) -> XmlNode:
    """Parse a UTF-8 document into its root element.

    Raises ParseError with a 1-based (line, column) on any input outside the
    accepted subset.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(1, 1, f"input is not valid UTF-8: {exc.reason}") from None
    if text.startswith("\ufeff"):
        text = text[1:]

    parser = _Parser(text)
    pos = 0
    if text.startswith("<?xml"):
        end = text.find("?>")
        if end < 0:
            raise parser.fail("unterminated XML declaration", 0)
        pos = end + 2
    pos = parser.skip_misc(pos)
    if pos >= len(text):
        raise parser.fail("document has no root element", pos)
    if text.startswith("<!", pos):
        raise parser.fail("DOCTYPE and markup declarations are not allowed", pos)
    if text.startswith("<?", pos):
        raise parser.fail("processing instructions are not allowed", pos)
    if not text.startswith("<", pos):
        raise parser.fail("content before the root element", pos)
    root, pos = parser.parse_element(pos)
    pos = parser.skip_misc(pos)
    if pos < len(text):
        raise parser.fail("content after the root element", pos)
    return root
