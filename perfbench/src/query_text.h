#ifndef QUASAQ_PERFBENCH_QUERY_TEXT_H_
#define QUASAQ_PERFBENCH_QUERY_TEXT_H_

#include <string>
#include <string_view>

#include "query/ast.h"

// Renders a generated QoS requirement as the text a portal would send
// through MediaDbSystem::SubmitTextQuery, so the text workload drives
// the lexer, parser and content index with exactly the requirement the
// traffic generator drew.

namespace quasaq::perfbench {

/// "SELECT video FROM videos WHERE TITLE = '<title>' WITH QOS (...)",
/// naming every bound of `qos`: both resolution, frame-rate, colour and
/// audio bounds, the accepted formats, the minimum security level and,
/// when set, the startup bound. Parsing the result with
/// query::ParseQuery yields a requirement SameRequirement() to `qos`
/// for any requirement whose frame rates and startup bound print
/// exactly with %.17g.
std::string RenderTitleQuery(std::string_view title,
                             const query::QosRequirement& qos);

/// Field-by-field equality of two requirements.
bool SameRequirement(const query::QosRequirement& a,
                     const query::QosRequirement& b);

}  // namespace quasaq::perfbench

#endif  // QUASAQ_PERFBENCH_QUERY_TEXT_H_
