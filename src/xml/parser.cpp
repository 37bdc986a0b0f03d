#include "xml/parser.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "support/strings.hpp"

namespace segbus::xml {

namespace {

bool is_name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':';
}

bool is_name_char(char c) {
  return is_name_start(c) || std::isdigit(static_cast<unsigned char>(c)) != 0 ||
         c == '-' || c == '.';
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Cursor over the source with line/column tracking.
class Cursor {
 public:
  explicit Cursor(std::string_view source) : source_(source) {}

  bool eof() const noexcept { return pos_ >= source_.size(); }
  char peek() const noexcept { return eof() ? '\0' : source_[pos_]; }
  char peek_at(std::size_t offset) const noexcept {
    return pos_ + offset < source_.size() ? source_[pos_ + offset] : '\0';
  }

  char advance() noexcept {
    char c = source_[pos_++];
    if (c == '\n') {
      ++location_.line;
      location_.column = 1;
    } else {
      ++location_.column;
    }
    return c;
  }

  bool consume(char expected) noexcept {
    if (peek() != expected) return false;
    advance();
    return true;
  }

  bool consume_literal(std::string_view literal) noexcept {
    if (source_.substr(pos_, literal.size()) != literal) return false;
    for (std::size_t i = 0; i < literal.size(); ++i) advance();
    return true;
  }

  void skip_space() noexcept {
    while (!eof() && is_space(peek())) advance();
  }

  Location location() const noexcept { return location_; }
  std::size_t offset() const noexcept { return pos_; }
  std::string_view slice(std::size_t begin, std::size_t end) const {
    return source_.substr(begin, end - begin);
  }

 private:
  std::string_view source_;
  std::size_t pos_ = 0;
  Location location_;
};

/// Deepest element nesting accepted. The parser recurses once per level,
/// so hostile input must not be able to exhaust the stack.
constexpr int kMaxDepth = 1024;

Status error_at(Location loc, const std::string& message) {
  return parse_error(str_format("line %d, column %d: %s", loc.line,
                                loc.column, message.c_str()));
}

class Parser {
 public:
  Parser(std::string_view source, const ParseOptions& options)
      : cursor_(source), options_(options) {}

  Result<Document> parse() {
    std::string declaration;
    // Optional XML declaration.
    if (cursor_.consume_literal("<?xml")) {
      std::size_t begin = cursor_.offset();
      while (!cursor_.eof() && !(cursor_.peek() == '?' &&
                                 cursor_.peek_at(1) == '>')) {
        cursor_.advance();
      }
      if (cursor_.eof()) {
        return error_at(cursor_.location(), "unterminated XML declaration");
      }
      declaration = std::string(trim(cursor_.slice(begin, cursor_.offset())));
      cursor_.consume_literal("?>");
    }
    SEGBUS_RETURN_IF_ERROR(skip_misc());
    if (cursor_.eof() || cursor_.peek() != '<') {
      return error_at(cursor_.location(), "expected root element");
    }
    auto root = parse_element(1);
    if (!root.is_ok()) return root.status();
    SEGBUS_RETURN_IF_ERROR(skip_misc());
    if (!cursor_.eof()) {
      return error_at(cursor_.location(),
                      "unexpected content after root element");
    }
    Document doc(std::move(root).value());
    doc.set_declaration(std::move(declaration));
    return doc;
  }

 private:
  /// Skips whitespace, comments, PIs and a DOCTYPE between top-level items.
  Status skip_misc() {
    while (true) {
      cursor_.skip_space();
      if (cursor_.peek() != '<') return Status::ok();
      if (cursor_.peek_at(1) == '!') {
        if (cursor_.peek_at(2) == '-') {
          SEGBUS_RETURN_IF_ERROR(skip_comment(nullptr));
          continue;
        }
        // DOCTYPE — skip to matching '>'. Internal subsets use [].
        if (cursor_.consume_literal("<!DOCTYPE")) {
          int bracket_depth = 0;
          while (!cursor_.eof()) {
            char c = cursor_.advance();
            if (c == '[') ++bracket_depth;
            if (c == ']') --bracket_depth;
            if (c == '>' && bracket_depth <= 0) break;
          }
          continue;
        }
        return error_at(cursor_.location(), "unexpected markup declaration");
      }
      if (cursor_.peek_at(1) == '?') {
        SEGBUS_RETURN_IF_ERROR(skip_pi());
        continue;
      }
      return Status::ok();
    }
  }

  Status skip_comment(Element* parent) {
    Location start = cursor_.location();
    if (!cursor_.consume_literal("<!--")) {
      return error_at(start, "malformed comment");
    }
    std::size_t begin = cursor_.offset();
    while (!cursor_.eof()) {
      if (cursor_.peek() == '-' && cursor_.peek_at(1) == '-') {
        std::size_t end = cursor_.offset();
        cursor_.advance();
        cursor_.advance();
        if (!cursor_.consume('>')) {
          return error_at(cursor_.location(), "'--' is not allowed inside a comment");
        }
        if (parent != nullptr && options_.keep_comments) {
          parent->add_comment(std::string(cursor_.slice(begin, end)));
        }
        return Status::ok();
      }
      cursor_.advance();
    }
    return error_at(start, "unterminated comment");
  }

  Status skip_pi() {
    Location start = cursor_.location();
    if (!cursor_.consume_literal("<?")) {
      return error_at(start, "malformed processing instruction");
    }
    while (!cursor_.eof()) {
      if (cursor_.peek() == '?' && cursor_.peek_at(1) == '>') {
        cursor_.advance();
        cursor_.advance();
        return Status::ok();
      }
      cursor_.advance();
    }
    return error_at(start, "unterminated processing instruction");
  }

  Result<std::string> parse_name() {
    Location start = cursor_.location();
    if (cursor_.eof() || !is_name_start(cursor_.peek())) {
      return error_at(start, "expected a name");
    }
    std::size_t begin = cursor_.offset();
    while (!cursor_.eof() && is_name_char(cursor_.peek())) cursor_.advance();
    return std::string(cursor_.slice(begin, cursor_.offset()));
  }

  Result<std::string> parse_attribute_value() {
    Location start = cursor_.location();
    char quote = cursor_.peek();
    if (quote != '"' && quote != '\'') {
      return error_at(start, "expected quoted attribute value");
    }
    cursor_.advance();
    std::size_t begin = cursor_.offset();
    while (!cursor_.eof() && cursor_.peek() != quote) {
      if (cursor_.peek() == '<') {
        return error_at(cursor_.location(),
                        "'<' is not allowed in attribute values");
      }
      cursor_.advance();
    }
    if (cursor_.eof()) {
      return error_at(start, "unterminated attribute value");
    }
    std::string_view raw = cursor_.slice(begin, cursor_.offset());
    cursor_.advance();  // closing quote
    auto decoded = decode_entities(raw);
    if (!decoded.is_ok()) {
      return error_at(start, decoded.status().message());
    }
    return std::move(decoded).value();
  }

  /// `depth` is the element's nesting level; the root is at level 1.
  Result<std::unique_ptr<Element>> parse_element(int depth) {
    Location start = cursor_.location();
    if (depth > kMaxDepth) {
      return error_at(start, str_format("elements nested deeper than %d",
                                        kMaxDepth));
    }
    if (!cursor_.consume('<')) {
      return error_at(start, "expected '<'");
    }
    SEGBUS_ASSIGN_OR_RETURN(std::string name, parse_name());
    auto element = std::make_unique<Element>(name);
    // Attributes.
    while (true) {
      bool had_space = false;
      while (!cursor_.eof() && is_space(cursor_.peek())) {
        cursor_.advance();
        had_space = true;
      }
      if (cursor_.eof()) {
        return error_at(start, "unterminated start tag <" + name + ">");
      }
      char c = cursor_.peek();
      if (c == '>' || c == '/') break;
      if (!had_space) {
        return error_at(cursor_.location(),
                        "expected whitespace before attribute");
      }
      Location attr_loc = cursor_.location();
      SEGBUS_ASSIGN_OR_RETURN(std::string attr_name, parse_name());
      cursor_.skip_space();
      if (!cursor_.consume('=')) {
        return error_at(cursor_.location(),
                        "expected '=' after attribute name '" + attr_name +
                            "'");
      }
      cursor_.skip_space();
      SEGBUS_ASSIGN_OR_RETURN(std::string value, parse_attribute_value());
      if (element->has_attribute(attr_name)) {
        return error_at(attr_loc, "duplicate attribute '" + attr_name +
                                      "' on element <" + name + ">");
      }
      element->set_attribute(attr_name, value);
    }
    if (cursor_.consume('/')) {
      if (!cursor_.consume('>')) {
        return error_at(cursor_.location(), "expected '>' after '/'");
      }
      return element;  // empty element
    }
    cursor_.advance();  // '>'
    SEGBUS_RETURN_IF_ERROR(parse_content(*element, name, start, depth));
    return element;
  }

  Status parse_content(Element& element, const std::string& name,
                       Location start, int depth) {
    std::string pending_text;
    auto flush_text = [&]() -> Status {
      if (pending_text.empty()) return Status::ok();
      auto decoded = decode_entities(pending_text);
      if (!decoded.is_ok()) return error_at(start, decoded.status().message());
      std::string text = std::move(decoded).value();
      bool whitespace_only = trim(text).empty();
      if (!whitespace_only || options_.keep_whitespace_text) {
        element.add_text(std::move(text));
      }
      pending_text.clear();
      return Status::ok();
    };

    while (true) {
      if (cursor_.eof()) {
        return error_at(start, "unterminated element <" + name + ">");
      }
      if (cursor_.peek() != '<') {
        pending_text += cursor_.advance();
        continue;
      }
      // Markup.
      if (cursor_.peek_at(1) == '/') {
        SEGBUS_RETURN_IF_ERROR(flush_text());
        cursor_.advance();  // '<'
        cursor_.advance();  // '/'
        SEGBUS_ASSIGN_OR_RETURN(std::string end_name, parse_name());
        cursor_.skip_space();
        if (!cursor_.consume('>')) {
          return error_at(cursor_.location(), "expected '>' in end tag");
        }
        if (end_name != name) {
          return error_at(start, "mismatched end tag: expected </" + name +
                                     ">, found </" + end_name + ">");
        }
        return Status::ok();
      }
      if (cursor_.peek_at(1) == '!' && cursor_.peek_at(2) == '-') {
        SEGBUS_RETURN_IF_ERROR(flush_text());
        SEGBUS_RETURN_IF_ERROR(skip_comment(&element));
        continue;
      }
      if (cursor_.peek_at(1) == '!' && cursor_.peek_at(2) == '[') {
        SEGBUS_RETURN_IF_ERROR(flush_text());
        Location cdata_loc = cursor_.location();
        if (!cursor_.consume_literal("<![CDATA[")) {
          return error_at(cdata_loc, "malformed CDATA section");
        }
        std::size_t begin = cursor_.offset();
        while (!cursor_.eof()) {
          if (cursor_.peek() == ']' && cursor_.peek_at(1) == ']' &&
              cursor_.peek_at(2) == '>') {
            element.add_cdata(
                std::string(cursor_.slice(begin, cursor_.offset())));
            cursor_.advance();
            cursor_.advance();
            cursor_.advance();
            break;
          }
          cursor_.advance();
        }
        if (cursor_.eof()) {
          return error_at(cdata_loc, "unterminated CDATA section");
        }
        continue;
      }
      if (cursor_.peek_at(1) == '?') {
        SEGBUS_RETURN_IF_ERROR(flush_text());
        SEGBUS_RETURN_IF_ERROR(skip_pi());
        continue;
      }
      // Child element.
      SEGBUS_RETURN_IF_ERROR(flush_text());
      auto child = parse_element(depth + 1);
      if (!child.is_ok()) return child.status();
      element.adopt(std::move(child).value());
    }
  }

  Cursor cursor_;
  ParseOptions options_;
};

}  // namespace

Result<std::string> decode_entities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c != '&') {
      out += c;
      ++i;
      continue;
    }
    std::size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return parse_error("unterminated entity reference");
    }
    std::string_view body = text.substr(i + 1, semi - i - 1);
    if (body == "lt") {
      out += '<';
    } else if (body == "gt") {
      out += '>';
    } else if (body == "amp") {
      out += '&';
    } else if (body == "quot") {
      out += '"';
    } else if (body == "apos") {
      out += '\'';
    } else if (!body.empty() && body.front() == '#') {
      std::string_view digits = body.substr(1);
      long long code = -1;
      if (!digits.empty() && (digits.front() == 'x' || digits.front() == 'X')) {
        digits.remove_prefix(1);
        code = 0;
        if (digits.empty()) code = -1;
        for (char d : digits) {
          int value;
          if (d >= '0' && d <= '9') {
            value = d - '0';
          } else if (d >= 'a' && d <= 'f') {
            value = d - 'a' + 10;
          } else if (d >= 'A' && d <= 'F') {
            value = d - 'A' + 10;
          } else {
            code = -1;
            break;
          }
          code = code * 16 + value;
          if (code > 0x10FFFF) break;
        }
      } else if (auto parsed = parse_uint(digits)) {
        code = static_cast<long long>(*parsed);
      }
      // The XML Char production: tab/LF/CR are the only code points below
      // 0x20, surrogates and the 0xFFFE/0xFFFF noncharacters are excluded.
      if (code < 0 || code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF) ||
          (code < 0x20 && code != 0x9 && code != 0xA && code != 0xD) ||
          code == 0xFFFE || code == 0xFFFF) {
        return parse_error("invalid character reference '&" +
                           std::string(body) + ";'");
      }
      // UTF-8 encode.
      auto cp = static_cast<unsigned long>(code);
      if (cp < 0x80) {
        out += static_cast<char>(cp);
      } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      }
    } else {
      return parse_error("unknown entity '&" + std::string(body) + ";'");
    }
    i = semi + 1;
  }
  return out;
}

Result<Document> parse_document(std::string_view source,
                                const ParseOptions& options) {
  Parser parser(source, options);
  return parser.parse();
}

Result<Document> parse_file(const std::string& path,
                            const ParseOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return not_found_error("cannot open XML file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_document(buffer.str(), options);
}

}  // namespace segbus::xml
