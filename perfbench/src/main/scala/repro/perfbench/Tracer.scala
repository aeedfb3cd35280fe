package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is one call into a layer, timed from the benchmark's own code:
  * name, start, end (`System.nanoTime`) and the span that was open when it
  * started. Nesting is workload -> phase -> call. With `enabled = false`
  * every method is a pass-through, so the untraced run pays nothing.
  */
final class Tracer(val enabled: Boolean) {

  final class Span(val id: Int, val name: String, val parent: Int, val start: Long) {
    var end: Long = -1L
    def nanos: Long = end - start
  }

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val s = new Span(spans.size, name, open.headOption.map(_.id).getOrElse(-1), System.nanoTime())
      spans += s
      open = s :: open
      try body
      finally { s.end = System.nanoTime(); open = open.tail }
    }

  def numSpans: Int = spans.size

  /** Per-name (total, self) nanoseconds over the closed spans that lie inside
    * one of `windows` (start, end). Self time is a span's duration minus the
    * part of it its direct children cover (children never overlap: the run is
    * one thread).
    */
  def totals(windows: Seq[(Long, Long)]): Map[String, (Long, Long)] = {
    val childNanos = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    for (s <- spans if s.end >= 0 && s.parent >= 0) childNanos(s.parent) += s.nanos
    def inside(s: Span) = s.end >= 0 && windows.exists { case (a, b) => s.start >= a && s.end <= b }
    spans.iterator.filter(inside).toVector.groupBy(_.name).map {
      case (name, ss) => name -> ((ss.map(_.nanos).sum, ss.map(s => s.nanos - childNanos(s.id)).sum))
    }
  }

  /** Write every span as one JSON array (times in ns from the first span). */
  def write(file: File): Unit = if (enabled) {
    val t0 = spans.headOption.map(_.start).getOrElse(0L)
    val pw = new PrintWriter(file, "UTF-8")
    try {
      pw.println("[")
      spans.zipWithIndex.foreach { case (s, i) =>
        val sep = if (i + 1 < spans.size) "," else ""
        pw.println(s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},""" +
          s""""start":${s.start - t0},"end":${s.end - t0}}$sep""")
      }
      pw.println("]")
    } finally pw.close()
  }
}
