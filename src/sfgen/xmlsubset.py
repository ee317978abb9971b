"""Minimal XML parser for model documents.

Accepts the constrained subset the modeling language actually uses: elements,
single- or double-quoted attributes, each after whitespace, character data
without `]]>`, comments, an optional XML declaration, and the five predefined
entities. DOCTYPE, CDATA, processing instructions, numeric character
references and namespace prefixes are rejected with a located error.

`Document.parse` is the one entry point: it reports each element to a
`Consumer` as it opens and as it closes, and builds no tree. A leaf, an
element with no markup in it, is read in one regular-expression match.
"""

from __future__ import annotations

import re
from typing import Protocol

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
# Ends a name only where no name character or ':' follows, so a failed match
# never retries a shorter name. A lookahead, because atomic groups need 3.11.
_NAME_END = r"(?![A-Za-z0-9_.\-:])"
_WS = r"[ \t\r\n]*"
_S = r"[ \t\r\n]+"  # what must come before each attribute

NAME_RE = re.compile(_NAME)
REFERENCE_RE = re.compile(r"&(?:([A-Za-z]+);)?")  # group 1 is None if malformed
PREDEFINED_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
WHITESPACE_RE = re.compile(_WS)
_VALUE_SPACES = str.maketrans("\t\n\r", "   ")

# An attribute's name, then (group 2) its value, which ends at the quote it starts after
ATTRIBUTE_RE = re.compile(_WS + "(" + _NAME + ")" + _NAME_END + _WS + "=" + _WS
                          + "[\"']((?<=\")[^\"<]*(?=\")|(?<=')[^'<]*(?='))[\"']")
TAG_END_RE = re.compile(_WS + "(/?)>")
# The text before the next markup, then a whole start tag with no '&', tab or
# line end in its attribute values (groups 2-5: name, attributes, '/' if it
# closes itself, and a leaf's text: a leaf is an element with no markup in it,
# read in one match to its end tag) or an end tag (group 6: name). Where it
# does not match, repeats an attribute name or closes another element, the
# step-by-step readers of `Document` run instead.
MARKUP_RE = re.compile(
    "([^<]*)<(?:(?P<tag>" + _NAME + ")" + _NAME_END
    + "((?:" + _S + _NAME + _NAME_END + _WS + "=" + _WS
    + "(?:\"[^\"<&\t\n\r]*\"|'[^'<&\t\n\r]*'))*)"
    + _WS + "(?:(/)>|>(?:([^<]*)</(?P=tag)" + _WS + ">)?)|/(" + _NAME + ")" + _NAME_END
    + _WS + ">)")


class ParseError(Exception):
    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"{line}:{column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class Consumer(Protocol):
    """What `Document.parse` reports an element's content to."""

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> Consumer | int:
        """A child element starts: its name, its attributes and the offset of
        its '<'. Returns the consumer of the child's content or, where it takes
        the whole element itself, the offset just past its end tag: parsing
        goes on from there, and nothing in between is read."""

    def close(self, text: str, end: int) -> None:
        """The element ends: its character data, without its children's, and
        the offset just past its end tag, so its source is text[offset:end]."""


class Document:
    """One document's text, with the readers that work on it.

    Readers take a position and return the position after what they read.
    """

    def __init__(self, data: bytes):
        """Decode a UTF-8 document; raises ParseError if it is not UTF-8."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(1, 1, f"input is not valid UTF-8: {exc.reason}") from None
        self.text = text[1:] if text.startswith("\ufeff") else text
        self.located = (0, 1, 0)  # the position located last, its line and the line's start

    def location(self, pos: int) -> tuple[int, int]:
        """1-based (line, column) of pos.

        Reads the text between pos and the position located last, so locating
        positions in document order reads the text once, with no line index.
        """
        text = self.text
        last, line, start = self.located
        if pos >= last:
            if newlines := text.count("\n", last, pos):
                line += newlines
                start = text.rfind("\n", last, pos) + 1
        elif newlines := text.count("\n", pos, last):
            line -= newlines
            start = text.rfind("\n", 0, pos) + 1
        self.located = pos, line, start
        return line, pos - start + 1

    def attribute_locations(self, pos: int) -> dict[str, tuple[int, int]]:
        """1-based (line, column) of each attribute name of the start tag at pos."""
        locations = {}
        pos = NAME_RE.match(self.text, pos + 1).end()
        while (m := ATTRIBUTE_RE.match(self.text, pos)) is not None:
            locations[m.group(1)] = self.location(m.start(1))
            pos = m.end()
        return locations

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

    def character_data(self, raw: str, pos: int) -> str:
        """The character data `raw`, read at pos, with its references decoded."""
        if "]]>" in raw:
            raise self.fail("']]>' in character data", pos + raw.index("]]>"))
        return self.decode_text(raw, pos) if "&" in raw else raw

    def decode_text(self, raw: str, pos: int) -> str:
        """`raw`, read at pos, with each entity reference decoded."""
        def decode(m: re.Match) -> str:
            if m.group(1) not in PREDEFINED_ENTITIES:
                raise self.fail("undefined or malformed entity reference", pos + m.start())
            return PREDEFINED_ENTITIES[m.group(1)]
        return REFERENCE_RE.sub(decode, raw)

    def read_attribute(self, pos: int, attributes: dict[str, str]) -> tuple[str, str, int]:
        """Read one attribute check by check; returns (name, value, end), its
        value with its references decoded and its whitespace normalized."""
        text = self.text
        name_pos = self.skip_whitespace(pos)
        if name_pos == pos and NAME_RE.match(text, pos):  # right after a value
            raise self.fail("expected whitespace before attribute name", pos)
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
        # each tab and line end is a space, a CRLF one space (XML 1.0, 3.3.3)
        value = self.decode_text(raw, value_start)
        return name, value.replace("\r\n", " ").translate(_VALUE_SPACES), end + 1

    def read_start_tag(self, pos: int) -> tuple[str, dict[str, str], bool, int]:
        """Read the start tag at pos check by check; returns its name, its
        attributes, whether it closes itself, and its end.

        Runs only where MARKUP_RE cannot read it: one of the checks fails, an
        attribute name repeats, or a value holds an entity reference to decode,
        a tab or a line end.
        """
        end = self.read_name(pos + 1, "element name")
        tag = self.text[pos + 1:end]
        attributes: dict[str, str] = {}
        while (tag_end := TAG_END_RE.match(self.text, end)) is None:
            name, value, end = self.read_attribute(end, attributes)
            attributes[name] = value
        return tag, attributes, bool(tag_end.group(1)), tag_end.end()

    def read_end_tag(self, pos: int, tag: str) -> int:
        """Read the closing tag at pos check by check; it must close `tag`.

        Runs only where MARKUP_RE does not match it or it closes another
        element, so one of the checks fails.
        """
        end = self.read_name(pos + 2, "closing tag name")
        close = self.text[pos + 2:end]
        if close != tag:
            raise self.fail(f"mismatched closing tag '</{close}>' for '<{tag}>'", end)
        pos = self.skip_whitespace(end)
        if not self.text.startswith(">", pos):
            raise self.fail("expected '>' after closing tag", pos)
        return pos + 1

    def parse(self, consumer: Consumer) -> None:
        """Parse the whole document, reporting its root element to `consumer`
        and every other element to the consumer of its parent's content.

        Raises ParseError with a 1-based (line, column) on any input outside
        the accepted subset, which may come after some elements were reported.
        """
        text = self.text
        pos = 0
        if text.startswith("<?xml"):
            end = text.find("?>")
            if end < 0:
                raise self.fail("unterminated XML declaration", 0)
            pos = end + 2
        pos = self.skip_misc(pos)
        if pos >= len(text):
            raise self.fail("document has no root element", pos)
        if text.startswith("<!", pos):
            raise self.fail("DOCTYPE and markup declarations are not allowed", pos)
        if text.startswith("<?", pos):
            raise self.fail("processing instructions are not allowed", pos)
        if not text.startswith("<", pos):
            raise self.fail("content before the root element", pos)
        pos = self.skip_misc(self.parse_element(pos, consumer))
        if pos < len(text):
            raise self.fail("content after the root element", pos)

    def parse_element(self, pos: int, consumer: Consumer) -> int:
        """Parse the element whose start tag is at pos; returns its end.

        One loop with an explicit stack of the open elements, each with its
        tag, offset, text parts and consumer, so nesting depth is bounded by memory
        rather than by the interpreter's recursion limit. Each turn reads the
        text before the next markup and that markup, a leaf element whole, with
        one MARKUP_RE match where it can. An element whose consumer takes it
        whole is not read.
        """
        text = self.text
        startswith = text.startswith
        match_markup = MARKUP_RE.match
        find_attributes = ATTRIBUTE_RE.findall
        stack: list[tuple[str, int, list[str], Consumer]] = []
        parts: list[str] = []  # the text of the innermost open element
        top = consumer  # the consumer of its content
        while True:
            m = match_markup(text, pos)
            if m is not None:
                raw, tag, attributes, empty, leaf, close = m.groups()
            else:
                leaf = None
                lt = text.find("<", pos)
                if lt < 0:
                    tag, offset, _, _ = stack[-1]
                    raise self.fail(f"unclosed element '{tag}'", offset)
                raw = text[pos:lt]
            if raw:
                parts.append(self.character_data(raw, pos) if "&" in raw or "]]>" in raw
                             else raw)
                pos += len(raw)

            if m is not None:
                end = m.end()
                if tag is None:
                    if not stack:
                        self.read_start_tag(pos)  # raises: an end tag is no root
                    if close != stack[-1][0]:
                        end = self.read_end_tag(pos, stack[-1][0])
                elif not attributes:
                    attributes = {}
                else:
                    pairs = find_attributes(attributes)
                    attributes = dict(pairs)
                    if len(attributes) < len(pairs):
                        self.read_start_tag(pos)  # raises: an attribute name repeats
            elif stack and startswith("</", pos):
                tag, end = None, self.read_end_tag(pos, stack[-1][0])
            elif startswith("<!--", pos):
                pos = self.read_comment(pos)
                continue
            elif startswith("<![CDATA[", pos):
                raise self.fail("CDATA sections are not allowed", pos)
            elif startswith("<!", pos):
                raise self.fail("DOCTYPE and markup declarations are not allowed", pos)
            elif startswith("<?", pos):
                raise self.fail("processing instructions are not allowed", pos)
            else:
                tag, attributes, empty, end = self.read_start_tag(pos)

            if tag is None:  # an end tag
                top.close("".join(parts), end)
                stack.pop()
                if not stack:
                    return end
                _, _, parts, top = stack[-1]
            else:
                child = top.child(tag, attributes, pos)
                if type(child) is int:  # the consumer took the element whole
                    end = child
                elif not empty and leaf is None:
                    parts = []
                    top = child
                    stack.append((tag, pos, parts, child))
                else:
                    child.close(self.character_data(leaf, m.start(5)) if leaf else "", end)
                if not stack:
                    return end
            pos = end
