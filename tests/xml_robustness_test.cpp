// Robustness corpus for the XML substrate and the model codecs: a
// parameterized sweep over malformed documents that must all be rejected
// with a ParseError (never a crash, hang, or silent acceptance), plus
// stress shapes (deep nesting, long tokens) that must parse, and nesting
// past the parser's depth limit, which must be a parse error.
#include <gtest/gtest.h>

#include <ostream>

#include "platform/platform_xml.hpp"
#include "psdf/psdf_xml.hpp"
#include "support/strings.hpp"
#include "xml/parser.hpp"

namespace segbus::xml {
namespace {

// --- malformed XML corpus ---------------------------------------------------------

struct BadDoc {
  const char* name;
  const char* text;
};

// Names the parameter in test names ("# GetParam() = empty"); without it
// gtest prints the struct's bytes, i.e. string-literal addresses that
// change on every build.
void PrintTo(const BadDoc& doc, std::ostream* os) { *os << doc.name; }

constexpr BadDoc kBadDocs[] = {
    {"empty", ""},
    {"whitespace_only", "  \n\t "},
    {"bare_text", "just text"},
    {"unclosed_root", "<a>"},
    {"unclosed_nested", "<a><b></b>"},
    {"mismatched_tags", "<a></b>"},
    {"crossed_tags", "<a><b></a></b>"},
    {"double_root", "<a/><b/>"},
    {"text_after_root", "<a/>trailing"},
    {"lone_close", "</a>"},
    {"bad_name_start", "<1a/>"},
    {"attr_no_value", "<a b/>"},
    {"attr_no_quotes", "<a b=c/>"},
    {"attr_unterminated", "<a b=\"c/>"},
    {"attr_duplicate", "<a b=\"1\" b=\"2\"/>"},
    {"attr_lt_in_value", "<a b=\"<\"/>"},
    {"unknown_entity", "<a>&bogus;</a>"},
    {"unterminated_entity", "<a>&amp</a>"},
    {"bad_char_ref", "<a>&#zz;</a>"},
    {"surrogate_char_ref", "<a>&#xD800;</a>"},
    {"oversized_char_ref", "<a>&#x110000;</a>"},
    {"nul_char_ref", "<a>&#0;</a>"},
    {"c0_control_char_ref", "<a>&#x1F;</a>"},
    {"noncharacter_fffe_ref", "<a>&#xFFFE;</a>"},
    {"noncharacter_ffff_ref", "<a>&#65535;</a>"},
    {"unterminated_comment", "<a><!-- no end</a>"},
    {"double_dash_comment", "<a><!-- a -- b --></a>"},
    {"unterminated_cdata", "<a><![CDATA[ no end</a>"},
    {"unterminated_pi", "<a><?pi no end</a>"},
    {"unterminated_decl", "<?xml version=\"1.0\""},
    {"stray_question", "<a><?></a>"},
    {"eof_in_tag", "<a b"},
    {"eof_in_close", "<a></a"},
    {"space_before_name", "< a/>"},
};

class XmlBadDocTest : public testing::TestWithParam<BadDoc> {};

TEST_P(XmlBadDocTest, RejectedWithParseError) {
  auto doc = parse_document(GetParam().text);
  ASSERT_FALSE(doc.is_ok()) << "accepted: " << GetParam().text;
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(doc.status().message().empty());
}

INSTANTIATE_TEST_SUITE_P(Corpus, XmlBadDocTest, testing::ValuesIn(kBadDocs),
                         [](const testing::TestParamInfo<BadDoc>& params) {
                           return params.param.name;
                         });

// --- scheme-codec robustness ------------------------------------------------------

struct BadScheme {
  const char* name;
  const char* text;
};

void PrintTo(const BadScheme& scheme, std::ostream* os) {
  *os << scheme.name;
}

constexpr BadScheme kBadPsdfSchemes[] = {
    {"wrong_root", "<not_schema/>"},
    {"no_processes", "<xs:schema/>"},
    {"bad_package_size",
     "<xs:schema segbus:packageSize=\"zero\">"
     "<xs:complexType name=\"A\"/></xs:schema>"},
    {"zero_package_size",
     "<xs:schema segbus:packageSize=\"0\">"
     "<xs:complexType name=\"A\"/></xs:schema>"},
    {"flow_to_unknown",
     "<xs:schema><xs:complexType name=\"A\"><xs:all>"
     "<xs:element name=\"B_10_1_5\" type=\"Transfer\"/>"
     "</xs:all></xs:complexType></xs:schema>"},
    {"malformed_flow_name",
     "<xs:schema><xs:complexType name=\"A\"><xs:all>"
     "<xs:element name=\"nonsense\" type=\"Transfer\"/>"
     "</xs:all></xs:complexType></xs:schema>"},
    {"missing_type_name",
     "<xs:schema><xs:complexType/></xs:schema>"},
    {"duplicate_process",
     "<xs:schema><xs:complexType name=\"A\"/>"
     "<xs:complexType name=\"A\"/></xs:schema>"},
    {"self_flow",
     "<xs:schema><xs:complexType name=\"A\"><xs:all>"
     "<xs:element name=\"A_10_1_5\" type=\"Transfer\"/>"
     "</xs:all></xs:complexType></xs:schema>"},
};

class PsdfBadSchemeTest : public testing::TestWithParam<BadScheme> {};

TEST_P(PsdfBadSchemeTest, RejectedCleanly) {
  auto doc = parse_document(GetParam().text);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  auto model = psdf::from_xml(*doc);
  EXPECT_FALSE(model.is_ok()) << "accepted: " << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, PsdfBadSchemeTest,
                         testing::ValuesIn(kBadPsdfSchemes),
                         [](const testing::TestParamInfo<BadScheme>& params) {
                           return params.param.name;
                         });

constexpr BadScheme kBadPsmSchemes[] = {
    {"wrong_root", "<platform/>"},
    {"no_sbp", "<xs:schema><xs:complexType name=\"Other\"/></xs:schema>"},
    {"sbp_without_segments",
     "<xs:schema><xs:complexType name=\"SBP\"><xs:all>"
     "<xs:element name=\"ca\" type=\"CA\"/></xs:all></xs:complexType>"
     "<xs:complexType name=\"CA\" segbus:frequencyMHz=\"100\"/>"
     "</xs:schema>"},
    {"sbp_without_ca",
     "<xs:schema><xs:complexType name=\"SBP\"><xs:all>"
     "<xs:element name=\"segment1\" type=\"Segment1\"/></xs:all>"
     "</xs:complexType>"
     "<xs:complexType name=\"Segment1\" segbus:frequencyMHz=\"91\"/>"
     "</xs:schema>"},
    {"unknown_member_type",
     "<xs:schema><xs:complexType name=\"SBP\"><xs:all>"
     "<xs:element name=\"weird\" type=\"Weird\"/></xs:all>"
     "</xs:complexType></xs:schema>"},
    {"segment_missing_frequency",
     "<xs:schema><xs:complexType name=\"SBP\"><xs:all>"
     "<xs:element name=\"segment1\" type=\"Segment1\"/>"
     "<xs:element name=\"ca\" type=\"CA\"/></xs:all></xs:complexType>"
     "<xs:complexType name=\"CA\" segbus:frequencyMHz=\"111\"/>"
     "<xs:complexType name=\"Segment1\"/>"
     "</xs:schema>"},
    {"negative_frequency",
     "<xs:schema><xs:complexType name=\"SBP\"><xs:all>"
     "<xs:element name=\"segment1\" type=\"Segment1\"/>"
     "<xs:element name=\"ca\" type=\"CA\"/></xs:all></xs:complexType>"
     "<xs:complexType name=\"CA\" segbus:frequencyMHz=\"-1\"/>"
     "<xs:complexType name=\"Segment1\" segbus:frequencyMHz=\"91\"/>"
     "</xs:schema>"},
};

class PsmBadSchemeTest : public testing::TestWithParam<BadScheme> {};

TEST_P(PsmBadSchemeTest, RejectedCleanly) {
  auto doc = parse_document(GetParam().text);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  auto model = platform::from_xml(*doc);
  EXPECT_FALSE(model.is_ok()) << "accepted: " << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, PsmBadSchemeTest,
                         testing::ValuesIn(kBadPsmSchemes),
                         [](const testing::TestParamInfo<BadScheme>& params) {
                           return params.param.name;
                         });

// --- stress shapes that must PARSE -------------------------------------------------

TEST(XmlStress, DeepNestingParses) {
  constexpr int kDepth = 500;
  std::string doc;
  for (int i = 0; i < kDepth; ++i) doc += "<n>";
  doc += "x";
  for (int i = 0; i < kDepth; ++i) doc += "</n>";
  auto parsed = parse_document(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Element* node = &parsed->root();
  int depth = 1;
  while (const Element* child = node->first_child("n")) {
    node = child;
    ++depth;
  }
  EXPECT_EQ(depth, kDepth);
  EXPECT_EQ(node->text_content(), "x");
}

std::string nested(int depth) {
  std::string doc;
  for (int i = 0; i < depth; ++i) doc += "<a>";
  for (int i = 0; i < depth; ++i) doc += "</a>";
  return doc;
}

// Hostile nesting is answered with a parse error at the first element past
// the limit, not a stack overflow.
TEST(XmlStress, NestingIsLimitedTo1024Levels) {
  EXPECT_TRUE(parse_document(nested(1024)).is_ok());
  for (int depth : {1025, 200000}) {
    auto parsed = parse_document(nested(depth));
    ASSERT_FALSE(parsed.is_ok()) << depth;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_EQ(parsed.status().message(),
              "line 1, column 3073: elements nested deeper than 1024");
  }
}

TEST(XmlStress, WideFanoutParses) {
  std::string doc = "<root>";
  for (int i = 0; i < 5000; ++i) {
    doc += str_format("<c i=\"%d\"/>", i);
  }
  doc += "</root>";
  auto parsed = parse_document(doc);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->root().element_count(), 5000u);
}

TEST(XmlStress, LongTokensParse) {
  std::string name(4096, 'a');
  std::string value(65536, 'v');
  std::string doc = "<" + name + " attr=\"" + value + "\"/>";
  auto parsed = parse_document(doc);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->root().name(), name);
  EXPECT_EQ(parsed->root().attribute("attr")->size(), value.size());
}

// --- round-trip regressions (found by the scenario fuzzer's generator) ------------

// Whitespace character references are the only code points below 0x20 the
// XML Char production allows — they must keep decoding.
TEST(XmlRoundTrip, WhitespaceCharRefsDecode) {
  auto doc = parse_document("<a>x&#x9;y&#xA;z&#xD;w</a>");
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  std::string text;
  for (const Node& node : doc->root().children()) {
    if (node.kind() == NodeKind::kText) text += node.text();
  }
  EXPECT_EQ(text, "x\ty\nz\rw");
}

// A process literally named "Arbiter" serializes as an FU element whose
// name attribute lowercases to "arbiter" — the same name the structural
// segment-arbiter element uses. The parser must tell them apart by type and
// keep the process in the mapping.
TEST(XmlRoundTrip, ArbiterNamedProcessSurvives) {
  platform::PlatformModel model("SBP");
  ASSERT_TRUE(model.add_segment(Frequency::from_mhz(100)).is_ok());
  ASSERT_TRUE(model.add_segment(Frequency::from_mhz(100)).is_ok());
  ASSERT_TRUE(model.map_process("Arbiter", 0).is_ok());
  ASSERT_TRUE(model.map_process("BuLeft", 1).is_ok());
  auto parsed = platform::from_xml(to_xml(model));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed->segment_of("Arbiter").has_value());
  EXPECT_TRUE(parsed->segment_of("BuLeft").has_value());
  EXPECT_EQ(parsed->segment(0).fus.size(), 1u);
  EXPECT_EQ(parsed->segment(1).fus.size(), 1u);
}

// Frequencies needing more than six significant digits must survive the
// scheme round-trip bit-exactly (the clock period feeds every emulated
// timestamp, so 1 kHz of drift changes results).
TEST(XmlRoundTrip, PreciseFrequencyRoundTrips) {
  platform::PlatformModel model("SBP");
  const Frequency precise = Frequency::from_mhz(123.456789);
  ASSERT_TRUE(model.set_ca_clock(precise).is_ok());
  ASSERT_TRUE(model.add_segment(Frequency::from_khz(98765.4321)).is_ok());
  ASSERT_TRUE(model.map_process("P0", 0).is_ok());
  auto parsed = platform::from_xml(to_xml(model));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->ca_clock().khz(), model.ca_clock().khz());
  EXPECT_EQ(parsed->segment(0).clock.khz(), model.segment(0).clock.khz());
  EXPECT_EQ(parsed->ca_clock().period_ps(), model.ca_clock().period_ps());
}

TEST(XmlStress, ManyEntitiesDecode) {
  std::string doc = "<a>";
  for (int i = 0; i < 2000; ++i) doc += "&amp;";
  doc += "</a>";
  auto parsed = parse_document(doc);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->root().text_content(), std::string(2000, '&'));
}

}  // namespace
}  // namespace segbus::xml
