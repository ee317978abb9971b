import xml.parsers.expat

import pytest
from hypothesis import given, strategies as st

from sfgen.xmlsubset import ParseError

from conftest import parse_tree


def test_minimal_document():
    root = parse_tree(b"<xsource/>")
    assert root.tag == "xsource"
    assert root.children == []
    assert root.location == (1, 1)


def test_an_element_closes_with_the_offset_past_its_end_tag():
    doc = ('<?xml version="1.0"?>\n<xsource>\n  <E a="1">x<!-- c --><F/>'
           '<G b=\'&amp;\' >y</G  ></E>\n</xsource >\n')
    root = parse_tree(doc.encode())
    text = root.document.text
    entity = root.children[0]
    assert text[root.offset:root.end] == doc[doc.index("<xsource"):doc.rindex(">") + 1]
    assert text[entity.offset:entity.end] == \
        '<E a="1">x<!-- c --><F/><G b=\'&amp;\' >y</G  ></E>'
    assert [text[c.offset:c.end] for c in entity.children] == \
        ["<F/>", "<G b='&amp;' >y</G  >"]


def test_entity_fragment():
    doc = """<xsource><EntityConfig>
<Entity tableName="Fakultet" name="Fakultet" isLogged="true">
  <Constraint type="Unique"><CField name="strName" /></Constraint>
</Entity>
</EntityConfig></xsource>""".encode()
    root = parse_tree(doc)
    entity = root.children[0].children[0]
    assert entity.tag == "Entity"
    assert entity.attributes["name"] == "Fakultet"
    assert entity.attributes["isLogged"] == "true"
    [constraint] = entity.children
    assert (constraint.tag, constraint.attributes["type"]) == ("Constraint", "Unique")
    assert entity.location == (2, 1)


def test_unclosed_element():
    with pytest.raises(ParseError) as exc:
        parse_tree(b"<a>")
    assert (exc.value.line, exc.value.column) == (1, 1)
    assert "unclosed" in exc.value.reason


def test_mismatched_close_tag():
    with pytest.raises(ParseError, match="mismatched"):
        parse_tree(b"<a><b></a></a>")


def test_predefined_entities_decoded():
    root = parse_tree(b'<a v="&lt;&gt;&amp;&quot;&apos;">x &amp; y</a>')
    assert root.attributes["v"] == "<>&\"'"
    assert root.text == "x & y"


@pytest.mark.parametrize("payload", [b"<a>&nbsp;</a>", b"<a>&#65;</a>", b"<a>&broken</a>"])
def test_undefined_entities_rejected(payload):
    with pytest.raises(ParseError, match="entity"):
        parse_tree(payload)


@pytest.mark.parametrize(
    "payload,needle",
    [
        (b"<!DOCTYPE html><a/>", "DOCTYPE"),
        (b"<a><![CDATA[x]]></a>", "CDATA"),
        (b"<a><?php ?></a>", "processing instruction"),
        (b"<ns:a/>", "namespace"),
        (b'<a ns:x="1"/>', "namespace"),
    ],
)
def test_disallowed_constructs(payload, needle):
    with pytest.raises(ParseError, match=needle):
        parse_tree(payload)


# One row per ParseError reason (and per place it can be raised), with the
# exact 1-based line and column the parser reports.
@pytest.mark.parametrize(
    "payload,line,column,reason",
    [
        (b"<a>\xff\xfe</a>", 1, 1, "input is not valid UTF-8: invalid start byte"),
        (b"<?xml version='1.0'", 1, 1, "unterminated XML declaration"),
        (b"<!-- never closed", 1, 1, "unterminated comment"),
        (b"<a><!-- never closed</a>", 1, 4, "unterminated comment"),
        (b"", 1, 1, "document has no root element"),
        (b"  <!-- only a comment -->\n", 2, 1, "document has no root element"),
        (b"text<a/>", 1, 1, "content before the root element"),
        (b"<a/><b/>", 1, 5, "content after the root element"),
        (b"<a/>\ntail", 2, 1, "content after the root element"),
        (b"<!DOCTYPE html><a/>", 1, 1, "DOCTYPE and markup declarations are not allowed"),
        (b"<a><!DOCTYPE x></a>", 1, 4, "DOCTYPE and markup declarations are not allowed"),
        (b"<a><![CDATA[x]]></a>", 1, 4, "CDATA sections are not allowed"),
        (b"<?php ?><a/>", 1, 1, "processing instructions are not allowed"),
        (b"<a><?php ?></a>", 1, 4, "processing instructions are not allowed"),
        (b"<ns:a/>", 1, 2, "namespace prefixes are not allowed in element name"),
        (b'<a ns:x="1"/>', 1, 4, "namespace prefixes are not allowed in attribute name"),
        (b"<a></ns:a>", 1, 6, "namespace prefixes are not allowed in closing tag name"),
        (b'<a x="1" x="2"/>', 1, 10, "duplicate attribute 'x'"),
        (b'<a x "1"/>', 1, 6, "expected '=' after attribute name"),
        (b"<a x=1/>", 1, 6, "expected quoted attribute value"),
        (b'<a x="1/>', 1, 7, "unterminated attribute value"),
        (b'<a x="1<2"/>', 1, 8, "'<' in attribute value"),
        (b'<a x="&nbsp;"/>', 1, 7, "undefined or malformed entity reference"),
        (b'<a\n  x="1"\n  y = "&amp;&bad;"/>', 3, 13, "undefined or malformed entity reference"),
        (b"<a>x &nbsp; y</a>", 1, 6, "undefined or malformed entity reference"),
        (b"<a>&#65;</a>", 1, 4, "undefined or malformed entity reference"),
        (b"<a>", 1, 1, "unclosed element 'a'"),
        (b"<a>text", 1, 1, "unclosed element 'a'"),
        (b"<a><b>\n</b>", 1, 1, "unclosed element 'a'"),
        (b"<a><b></a></a>", 1, 10, "mismatched closing tag '</a>' for '<b>'"),
        (b"<a></a x>", 1, 8, "expected '>' after closing tag"),
        (b"<a></a", 1, 7, "expected '>' after closing tag"),
        (b"<1/>", 1, 2, "expected element name"),
        (b"<a>< b/></a>", 1, 5, "expected element name"),
        (b"<a></ a>", 1, 6, "expected closing tag name"),
        (b"<a x='1'/ >", 1, 9, "expected attribute name"),
        (b'<a x="1" =/>', 1, 10, "expected attribute name"),
        (b'<a\n  x="1"\n  y="2" x="3"/>', 3, 9, "duplicate attribute 'x'"),
        (b'<a x="1" y=\'2\' z="&bad;"/>', 1, 19, "undefined or malformed entity reference"),
        (b'<a x="1"y="2"/>', 1, 9, "expected whitespace before attribute name"),
        (b'<a x="&amp;"y="2"/>', 1, 13, "expected whitespace before attribute name"),
        (b"<a>]]></a>", 1, 4, "']]>' in character data"),
        (b"<a>x &amp; ]]></a>", 1, 12, "']]>' in character data"),
        # the same checks in a leaf, an element whose start tag, text and end
        # tag are read in one match
        (b"<r><a>x]]></a></r>", 1, 8, "']]>' in character data"),
        (b'<r>\n  <a x="&amp;">y]]></a></r>', 2, 17, "']]>' in character data"),
        (b"<r><a>&bad;</a></r>", 1, 7, "undefined or malformed entity reference"),
        (b'<r><a x="1" x="2">t</a></r>', 1, 13, "duplicate attribute 'x'"),
        (b"<r><a>t</b></r>", 1, 11, "mismatched closing tag '</b>' for '<a>'"),
        (b"<r><a>t</a:b></r>", 1, 10, "namespace prefixes are not allowed in closing tag name"),
        (b"<r><a>t</a x></r>", 1, 12, "expected '>' after closing tag"),
    ],
)
def test_parse_errors_are_located(payload, line, column, reason):
    with pytest.raises(ParseError) as exc:
        parse_tree(payload)
    assert (exc.value.line, exc.value.column, exc.value.reason) == (line, column, reason)


def test_xml_declaration_and_comments_discarded():
    root = parse_tree(b"<?xml version='1.0'?><!-- top --><a><!-- in -->text</a><!-- after -->")
    assert root.tag == "a"
    assert root.text == "text"


def test_single_and_double_quoted_attributes():
    root = parse_tree(b"<a x='1' y=\"2\"/>")
    assert root.attributes == {"x": "1", "y": "2"}


def test_duplicate_attribute_rejected():
    with pytest.raises(ParseError, match="duplicate attribute"):
        parse_tree(b'<a x="1" x="2"/>')


def test_content_after_root_rejected():
    with pytest.raises(ParseError, match="after the root"):
        parse_tree(b"<a/><b/>")


def test_attribute_locations_are_tracked():
    root = parse_tree(b'<a\n  first="1"\n  second="2"/>')
    assert root.attribute_locations["first"] == (2, 3)
    assert root.attribute_locations["second"] == (3, 3)


def test_non_utf8_rejected():
    with pytest.raises(ParseError, match="UTF-8"):
        parse_tree(b"<a>\xff\xfe</a>")


def test_deep_nesting_parses():
    depth = 5000
    node = parse_tree(b"<a>" * depth + b"</a>" * depth)
    # walk with a loop, as a recursive walk would exceed the recursion limit
    levels = 1
    while node.children:
        (node,) = node.children
        levels += 1
    assert levels == depth


# unbalanced nesting up to a few thousand levels, with a body or a tail
deep_nesting = st.builds(
    lambda depth, closes, body: b"<a>" * depth + body + b"</a>" * closes,
    st.integers(0, 3000),
    st.integers(0, 3001),
    st.sampled_from([b"", b"<b/>", b"x", b"<!--", b"</b>"]),
)


@given(st.one_of(st.binary(max_size=200), deep_nesting))
def test_total_over_byte_sequences(data):
    # any input either parses to a tree or raises a located ParseError
    try:
        root = parse_tree(data)
        assert root.tag
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1


@given(st.text(alphabet="abc<>&\"' \n", max_size=40))
def test_attribute_value_roundtrip(value):
    encoded = (value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;"))
    root = parse_tree(f'<a v="{encoded}"/>'.encode())
    assert root.attributes["v"] == value


_TAGS = st.sampled_from(["a", "b", "Field", "x.y", "_n-1"])
_SPACE = st.text(alphabet=" \t\r\n", max_size=3)
_VALUE_PIECES = st.sampled_from(["v", " ", "\n", ">", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;"])
_TEXT_PIECES = st.sampled_from(["t", " ", "\n", ">", "&amp;", "&lt;", "<!-- c\n-->"])


@st.composite
def _located_documents(draw):
    """A well-formed document, with the offset of each element's '<' and of
    each of its attribute names, elements in document order."""
    parts: list[str] = []
    expected: list[tuple[int, dict[str, int]]] = []

    def emit(piece: str) -> int:
        offset = sum(map(len, parts))
        parts.append(piece)
        return offset

    def element(depth: int) -> None:
        tag = draw(_TAGS)
        offsets: dict[str, int] = {}
        expected.append((emit("<" + tag), offsets))
        for name in draw(st.lists(st.sampled_from(["k", "name", "x.y", "_z-9"]),
                                  unique=True, max_size=4)):
            emit(draw(_SPACE.filter(bool)))
            offsets[name] = emit(name)
            quote = draw(st.sampled_from("\"'"))
            value = "".join(draw(st.lists(_VALUE_PIECES, max_size=4)))
            value += "'\"".replace(quote, "") * draw(st.integers(0, 1))
            emit(f"{draw(_SPACE)}={draw(_SPACE)}{quote}{value}{quote}")
        emit(draw(_SPACE))
        if depth >= 3 or draw(st.booleans()):
            emit("/>")
            return
        emit(">")
        for _ in range(draw(st.integers(0, 3))):
            emit("".join(draw(st.lists(_TEXT_PIECES, max_size=3))))
            element(depth + 1)
        emit("".join(draw(st.lists(_TEXT_PIECES, max_size=3))))
        emit(f"</{tag}{draw(_SPACE)}>")

    emit(draw(st.sampled_from(["", "<?xml version='1.0'?>\n", "<!-- head -->\n \n"])))
    element(0)
    emit(draw(st.sampled_from(["", "\n", "\n<!-- tail -->\n"])))
    return "".join(parts), expected


def _line_and_column(text, offset):
    """1-based line and column of `offset`, counted independently of the parser."""
    return text.count("\n", 0, offset) + 1, offset - (text.rfind("\n", 0, offset) + 1) + 1


@given(_located_documents())
def test_locations_match_offsets(document):
    text, expected = document
    nodes = []
    stack = [parse_tree(text.encode())]
    while stack:  # preorder, children left to right
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(node.children))
    assert len(nodes) == len(expected)
    for node, (offset, attribute_offsets) in zip(nodes, expected):
        assert node.location == _line_and_column(text, offset)
        assert node.attribute_locations == {
            name: _line_and_column(text, at) for name, at in attribute_offsets.items()}


# Expat, the standard library's XML parser, as an oracle for the documents both
# accept. Left out: '\r' anywhere, and tabs or newlines in attribute values.
# Expat normalizes those (to '\n' and to spaces), and the subset does not yet:
# the known line-end and attribute-value gaps of ROADMAP item 7.
_ORACLE_TEXT = st.sampled_from(
    ["t", " ", "\n", "\t", ">", "'", '"', "&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
     "<!-- c\n-->"])
_ORACLE_VALUE = st.sampled_from(["v", " ", ">", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;"])
_ORACLE_SPACE = st.text(alphabet=" \t\n", max_size=2)


@st.composite
def _oracle_documents(draw):
    """A well-formed ASCII document: leaves, self-closing tags, elements with
    children and text, comments, and whitespace before each tag's '>'."""

    def text() -> str:
        return "".join(draw(st.lists(_ORACLE_TEXT, max_size=3)))

    def element(depth: int) -> str:
        tag = draw(_TAGS)
        head = "<" + tag
        for name in draw(st.lists(st.sampled_from(["k", "name", "x.y", "_z-9"]),
                                  unique=True, max_size=3)):
            quote = draw(st.sampled_from("\"'"))
            value = "".join(draw(st.lists(_ORACLE_VALUE, max_size=3)))
            value += "'\"".replace(quote, "") * draw(st.integers(0, 1))
            head += (f"{draw(_ORACLE_SPACE.filter(bool))}{name}{draw(_ORACLE_SPACE)}="
                     f"{draw(_ORACLE_SPACE)}{quote}{value}{quote}")
        head += draw(_ORACLE_SPACE)
        kind = "empty" if depth >= 3 else draw(st.sampled_from(["empty", "leaf", "parent"]))
        if kind == "empty":
            return head + "/>"
        body = text()
        if kind == "parent":
            for _ in range(draw(st.integers(1, 3))):
                body += element(depth + 1) + text()
        return f"{head}>{body}</{tag}{draw(_ORACLE_SPACE)}>"

    head = draw(st.sampled_from(["", "<?xml version='1.0'?>\n", "<!-- head -->\n"]))
    return head + element(0) + draw(st.sampled_from(["", "\n", "<!-- tail -->\n"]))


def _expat_events(text: str) -> list:
    """(tag, attributes, (line, column) of '<', text) of each element, in
    document order, as Expat reports them."""
    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    events, open_ = [], []

    def start(tag, attributes):
        open_.append(len(events))
        events.append([tag, list(zip(attributes[::2], attributes[1::2])),
                       (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1), ""])

    def data(chars):
        events[open_[-1]][3] += chars

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: open_.pop()
    parser.CharacterDataHandler = data
    parser.Parse(text.encode(), True)
    return events


@given(_oracle_documents())
def test_parser_agrees_with_expat(text):
    events, stack = [], [parse_tree(text.encode())]
    while stack:  # preorder, children left to right
        node = stack.pop()
        events.append([node.tag, list(node.attributes.items()), node.location, node.text])
        stack.extend(reversed(node.children))
    assert events == _expat_events(text)
