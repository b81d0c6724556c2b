package repro.geo

import java.util.PriorityQueue
import scala.collection.mutable

/** The R-tree as it was written on boxed `PriorityQueue`s of tuples and a
  * tuple sort, kept as the reference for [[STRtree]]'s primitive heaps: its
  * top-k ids and distances, ties included, must equal these bit for bit.
  */
final class ReferenceRtree private (segments: Array[Segment], root: ReferenceRtree.Node) {

  def nearest(p: XY, k: Int): Candidates = {
    if (segments.isEmpty || k <= 0) return Candidates(Array.emptyIntArray, Array.emptyDoubleArray)
    val frontier = new PriorityQueue[(Double, ReferenceRtree.Node)](11,
      (a: (Double, ReferenceRtree.Node), b: (Double, ReferenceRtree.Node)) => java.lang.Double.compare(a._1, b._1))
    frontier.add((ReferenceRtree.minDist(root.mbr, p), root))
    val best = new PriorityQueue[(Double, Int)](k,
      (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(b._1, a._1))
    while (!frontier.isEmpty) {
      val (lb, node) = frontier.poll()
      if (best.size == k && lb >= best.peek()._1) {
        frontier.clear()
      } else node match {
        case ReferenceRtree.Leaf(_, entries) =>
          var i = 0
          while (i < entries.length) {
            val sid = entries(i)
            val s = segments(sid)
            val d = Geo.pointSegDist(p, s.a, s.b)
            if (best.size < k) best.add((d, sid))
            else if (d < best.peek()._1) { best.poll(); best.add((d, sid)) }
            i += 1
          }
        case ReferenceRtree.Branch(_, children) =>
          children.foreach { c =>
            val clb = ReferenceRtree.minDist(c.mbr, p)
            if (best.size < k || clb < best.peek()._1) frontier.add((clb, c))
          }
      }
    }
    val out = mutable.ArrayBuffer.empty[(Double, Int)]
    while (!best.isEmpty) out += best.poll()
    val sorted = out.sortBy(e => (e._1, e._2))
    Candidates(sorted.map(_._2).toArray, sorted.map(_._1).toArray)
  }
}

object ReferenceRtree {
  private val Capacity = 16

  /** Minimum distance from `p` to the box (0 if inside). */
  private def minDist(m: MBR, p: XY): Double = {
    val dx = if (p.x < m.minX) m.minX - p.x else if (p.x > m.maxX) p.x - m.maxX else 0.0
    val dy = if (p.y < m.minY) m.minY - p.y else if (p.y > m.maxY) p.y - m.maxY else 0.0
    math.hypot(dx, dy)
  }

  sealed trait Node { def mbr: MBR }
  final case class Leaf(mbr: MBR, entries: Array[Int]) extends Node
  final case class Branch(mbr: MBR, children: Array[Node]) extends Node

  private def segMbr(s: Segment): MBR =
    MBR(math.min(s.a.x, s.b.x), math.min(s.a.y, s.b.y), math.max(s.a.x, s.b.x), math.max(s.a.y, s.b.y))

  def build(segments: Array[Segment]): ReferenceRtree = {
    val leaves: Array[Node] = pack(
      segments.map(s => (segMbr(s), s.id)),
      (mbr: MBR, ids: Array[Int]) => Leaf(mbr, ids),
    )
    var level: Array[Node] = leaves
    while (level.length > 1) {
      level = pack(
        level.map(n => (n.mbr, n)),
        (mbr: MBR, ns: Array[Node]) => Branch(mbr, ns),
      )
    }
    new ReferenceRtree(segments, level(0))
  }

  private def pack[E, N](entries: Array[(MBR, E)], mk: (MBR, Array[E]) => N)(implicit
      ct: scala.reflect.ClassTag[E], nt: scala.reflect.ClassTag[N]): Array[N] = {
    val n = entries.length
    val nNodes = math.ceil(n.toDouble / Capacity).toInt
    val nSlices = math.max(1, math.ceil(math.sqrt(nNodes.toDouble)).toInt)
    val perSlice = math.max(1, math.ceil(n.toDouble / nSlices).toInt)
    val byX = entries.sortBy(_._1.centerX)
    val out = mutable.ArrayBuffer.empty[N]
    byX.grouped(perSlice).foreach { slice =>
      slice.sortBy(_._1.centerY).grouped(Capacity).foreach { grp =>
        val mbr = grp.map(_._1).reduce(_ union _)
        out += mk(mbr, grp.map(_._2).toArray)
      }
    }
    out.toArray
  }
}
